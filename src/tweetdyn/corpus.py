"""The normalized tweet table as NumPy columns.

A :class:`Corpus` holds one row per tweet, in the order ``ingest`` wrote them:

* ``user`` and ``source`` - codes into ``account_ids``, the sorted table of
  every author and every retweeted account; ``source`` is -1 for a tweet that
  is not a retweet, so the retweet flag and the category follow from it;
* ``timestamp_us`` - UTC time as int64 microseconds since 1970-01-01, and
  ``day``, the proleptic Gregorian ordinal of its UTC calendar day;
* ``language`` - codes into the sorted ``language_ids`` table;
* ``tweet_id`` and ``text`` - string columns (:class:`StringColumn`): UTF-8
  bytes plus row offsets.

Strings are encoded with the ``surrogatepass`` handler, so any Python string
survives the round trip, and byte order in a column equals code-point order.

Every corpus is built by a :class:`CorpusRows`: one account and one
language id table for every block of rows it is given, the int columns in
memory, and the bytes of the tweet ids and texts spilled to two unnamed
files. Every string column reads its bytes from a file with ``os.pread``, a
block or a row at a time, so no page of them stays resident; a selection of
rows (:meth:`Corpus.select`) is gathered into two more unnamed files.

``ingest`` writes the corpus next to ``records.jsonl`` as ``corpus.npz``, an
uncompressed zip of ``.npy`` members. The sidecar records the sha256 of that
``records.jsonl``. :meth:`Corpus.load` copies no column: it maps each int
member read-only, and the tweet ids and texts are read from the open file as
the spilled ones are. It costs two full reads through one 256 KiB buffer,
the records sha256 and the members' CRC-32s, and it checks every shape, code
range and offset too. It raises :class:`CorpusError` on any mismatch instead
of handing back stale rows. :meth:`Corpus.save` and ``write_records`` replace
their file atomically (:func:`replacing`), so a loaded corpus, which holds
the old file open, never sees it rewritten.
"""

from __future__ import annotations

import hashlib
import io
import math
import mmap
import os
import struct
import tempfile
import weakref
import zipfile
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from datetime import date
from functools import cached_property
from itertools import repeat
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

FORMAT_VERSION = 1
US_PER_DAY = 86_400_000_000
_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()
# Any fixed stamp works; np.savez would write the wall clock here.
_ZIP_DATE = (1980, 1, 1, 0, 0, 0)
_SELECT_BLOCK = 8192  # rows gathered at once by StringColumn.select
# Bytes read at once by Corpus.load's checks and copied at once by
# Corpus.save from a string column.
_BLOCK_BYTES = 1 << 18
# A zip local file header, read for its name and extra-field lengths.
_LOCAL_HEADER = struct.Struct("<26xHH")

# Category codes of Corpus.categories.
ORIGINAL, SPREADING, AMPLIFYING = 0, 1, 2


class CorpusError(ValueError):
    """A corpus sidecar that is missing, unreadable or out of date."""


def _chunks(fh: BinaryIO, size: int, buffer: bytearray) -> Iterator[memoryview]:
    """The next ``size`` bytes of ``fh``, read into ``buffer`` a block at a
    time; each view is valid until the next one. Raises EOFError when the
    file ends first."""
    view = memoryview(buffer)
    while size:
        n = fh.readinto(view[: min(size, len(view))])
        if not n:
            raise EOFError(f"the file ends {size} bytes early")
        size -= n
        yield view[:n]


@contextmanager
def replacing(path: str | Path) -> Iterator[BinaryIO]:
    """A binary file that takes ``path``'s place when the block ends.

    It is written beside ``path`` and moved over it with ``os.replace``, so a
    reader (or a live map) of the old file never sees a partial one. On an
    error the new file is removed and ``path`` is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _encode(s: str) -> bytes:
    return s.encode("utf-8", "surrogatepass")


def _encoded(strings: list[str]) -> tuple[bytes, np.ndarray]:
    """The strings' bytes, one after another, and each string's byte count."""
    text = "".join(strings)
    blob = _encode(text)
    if len(blob) == len(text):  # every character is one byte
        return blob, np.fromiter(map(len, strings), np.int64, len(strings))
    return blob, np.fromiter((len(_encode(s)) for s in strings), np.int64, len(strings))


def _offsets(lengths: np.ndarray) -> np.ndarray:
    """Row offsets of strings of the given byte counts."""
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


@dataclass(frozen=True, eq=False)
class StringColumn:
    """Strings stored as UTF-8 bytes one after another in a file, from byte
    ``start`` on; row ``i`` is bytes ``offsets[i]`` to ``offsets[i+1]`` of
    that region, read with ``os.pread`` as it is asked for. The column owns
    ``fd``, which it closes when it is collected, so it keeps its file open
    after every other handle of it is closed."""

    fd: int
    start: int
    offsets: np.ndarray

    def __post_init__(self) -> None:
        weakref.finalize(self, os.close, self.fd)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def take(self, rows: Sequence[int]) -> list[str]:
        return [str(b, "utf-8", "surrogatepass") for b in self._bytes(rows)]

    def select(self, rows: np.ndarray, spill_dir: str | Path | None) -> "StringColumn":
        """A column of the given rows, in that order, gathered a block of
        rows at a time into an unnamed file in ``spill_dir``."""
        with tempfile.TemporaryFile(dir=spill_dir) as fh:
            for lo in range(0, len(rows), _SELECT_BLOCK):
                fh.write(b"".join(self._bytes(rows[lo : lo + _SELECT_BLOCK])))
            return _spilled(fh, _offsets(np.diff(self.offsets)[rows]))

    def _bytes(self, rows: Sequence[int]) -> Iterator[bytes]:
        """The bytes of each row, one read each."""
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.offsets[rows]
        sizes = (self.offsets[rows + 1] - starts).tolist()
        return map(os.pread, repeat(self.fd), sizes, (starts + self.start).tolist())

    def _read(self, lo: int, hi: int) -> bytes:
        """Bytes ``lo`` to ``hi`` of the column's data, in one read."""
        size = hi - lo
        data = os.pread(self.fd, size, self.start + lo)
        if len(data) != size:
            raise OSError(f"read {len(data)} of {size} bytes: the file is shorter than its column")
        return data

    def strings(self, start: int, stop: int) -> list[str]:
        """Rows ``start`` to ``stop`` (exclusive), reading only their bytes,
        in one piece."""
        off = self.offsets[start : stop + 1]
        raw = self._read(int(off[0]), int(off[-1]))
        off = (off - off[0]).tolist()
        text = str(raw, "utf-8", "surrogatepass")
        if len(text) != len(raw):  # a character of more than one byte
            return [str(raw[a:b], "utf-8", "surrogatepass") for a, b in zip(off, off[1:])]
        return [text[a:b] for a, b in zip(off, off[1:])]

    def tolist(self) -> list[str]:
        return self.strings(0, len(self))


def _spilled(fh: BinaryIO, offsets: np.ndarray) -> StringColumn:
    """A column of the bytes written to the file ``fh``, with read-only
    ``offsets``; it takes the file over, through its own descriptor, and
    closes ``fh``."""
    with fh:
        fh.flush()
        offsets.flags.writeable = False
        return StringColumn(fd=os.dup(fh.fileno()), start=0, offsets=offsets)


@dataclass(frozen=True, eq=False)
class Corpus:
    """Columnar tweet table; see the module docstring for the columns."""

    account_ids: tuple[str, ...]
    user: np.ndarray
    source: np.ndarray
    timestamp_us: np.ndarray
    language_ids: tuple[str, ...]
    language: np.ndarray
    tweet_id: StringColumn
    text: StringColumn
    day: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        day = self.timestamp_us // US_PER_DAY + _EPOCH_ORDINAL
        day.flags.writeable = False
        object.__setattr__(self, "day", day)

    def select(self, rows: np.ndarray, spill_dir: str | Path | None) -> "Corpus":
        """The given rows, in that order; the tables stay as they are, and
        the strings are gathered into two unnamed files in ``spill_dir``."""
        return replace(
            self,
            user=self.user[rows],
            source=self.source[rows],
            timestamp_us=self.timestamp_us[rows],
            language=self.language[rows],
            tweet_id=self.tweet_id.select(rows, spill_dir),
            text=self.text.select(rows, spill_dir),
        )

    def __len__(self) -> int:
        return len(self.user)

    @cached_property
    def _account_index(self) -> dict[str, int]:
        return {a: i for i, a in enumerate(self.account_ids)}

    def codes_of(self, ids: Sequence[str]) -> np.ndarray:
        """Account code of each id, -1 for ids the corpus never mentions."""
        index = self._account_index
        return np.fromiter((index.get(i, -1) for i in ids), np.int64, len(ids))

    def positions(self, users: Sequence[str]) -> np.ndarray:
        """Per row, the position of its author in ``users``, or -1."""
        codes = self.codes_of(users)
        pos = np.full(len(self.account_ids), -1, dtype=np.int64)
        known = codes >= 0
        pos[codes[known]] = np.flatnonzero(known)
        return pos[self.user]

    def members(self, ids: Iterable[str]) -> np.ndarray:
        """Boolean mask over ``account_ids``: True for the given ids."""
        mask = np.zeros(len(self.account_ids), dtype=bool)
        codes = self.codes_of(list(set(ids)))
        mask[codes[codes >= 0]] = True
        return mask

    def authors(self) -> set[str]:
        """Ids of the accounts that wrote at least one row."""
        return {self.account_ids[c] for c in np.unique(self.user).tolist()}

    def window_offsets(self, window) -> tuple[np.ndarray, np.ndarray]:
        """Per row, the day offset in a :class:`DayWindow` and whether it is inside."""
        t = self.day - window.start.toordinal()
        return t, (t >= 0) & (t < window.n_days)

    def language_mask(self, language: str | None) -> np.ndarray:
        """Rows in ``language``; every row when it is None."""
        if language is None:
            return np.ones(len(self), dtype=bool)
        if language not in self.language_ids:
            return np.zeros(len(self), dtype=bool)
        return self.language == self.language_ids.index(language)

    def categories(self, campaign_users: Iterable[str]) -> np.ndarray:
        """Per row: ORIGINAL, SPREADING (retweet of a campaign account) or
        AMPLIFYING (retweet of any other account)."""
        campaign_users = set(campaign_users)
        if not campaign_users:
            raise ValueError("campaign_users must be nonempty")
        # One extra False slot so that source -1 (no retweet) indexes it.
        member = np.append(self.members(campaign_users), False)
        out = np.full(len(self), ORIGINAL, dtype=np.int64)
        retweet = self.source >= 0
        out[retweet] = np.where(member[self.source[retweet]], SPREADING, AMPLIFYING)
        return out

    # ------------------------------------------------------------- sidecar

    def save(self, path: str | Path, records_sha256: str) -> None:
        """Write ``corpus.npz`` byte-deterministically, stamped with the sha256
        of the ``records.jsonl`` it mirrors.

        The string columns are copied a block of bytes at a time. The file is
        replaced atomically (:func:`replacing`): a corpus loaded from an
        earlier sidecar keeps that file open and its values.
        """
        members = {
            "version": np.array(FORMAT_VERSION, dtype=np.int64),
            "records_sha256": np.array(records_sha256, dtype="U64"),
        }
        for name, table in (("account", self.account_ids), ("language", self.language_ids)):
            blob, lengths = _encoded(list(table))
            members[f"{name}_blob"] = np.frombuffer(blob, dtype=np.uint8)
            members[f"{name}_offsets"] = _offsets(lengths)
        members |= {
            "user": self.user,
            "source": self.source,
            "timestamp_us": self.timestamp_us,
            "language": self.language,
            "tweet_id_blob": self.tweet_id,
            "tweet_id_offsets": self.tweet_id.offsets,
            "text_blob": self.text,
            "text_offsets": self.text.offsets,
        }
        with replacing(path) as fh, zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED) as zf:
            for name, value in members.items():
                if isinstance(value, StringColumn):  # stored as a uint8 array
                    size = int(value.offsets[-1])
                    header_data = {"descr": "|u1", "fortran_order": False, "shape": (size,)}
                    blocks = (
                        value._read(lo, min(lo + _BLOCK_BYTES, size))
                        for lo in range(0, size, _BLOCK_BYTES)
                    )
                else:  # np.save's header, then the array's own buffer: no copy
                    size = value.nbytes
                    header_data = np.lib.format.header_data_from_array_1_0(value)
                    blocks = [value.data]
                header = io.BytesIO()
                np.lib.format.write_array_header_1_0(header, header_data)
                info = zipfile.ZipInfo(f"{name}.npy", date_time=_ZIP_DATE)
                # as writestr sets it, so the same entries take ZIP64 fields
                info.file_size = header.tell() + size
                with zf.open(info, "w") as member:
                    member.write(header.getbuffer())
                    for block in blocks:
                        member.write(block)

    @classmethod
    def load(cls, path: str | Path, records_path: str | Path) -> "Corpus":
        """Open a sidecar and check it against the ``records.jsonl`` beside it.

        No column is copied: each int column is a read-only view into a map
        of its member, and the tweet ids and texts are read from the open
        file with ``os.pread`` (:class:`StringColumn`), which stays open as
        long as the columns do. The checks read each file once in full,
        through one 256 KiB buffer: ``records.jsonl`` for its sha256, and the
        sidecar's members, with their local headers, for their CRC-32s.
        Raises :class:`CorpusError` naming the file at fault when the sidecar
        is missing, unreadable, malformed, or was written for other records.
        """
        path, records_path = Path(path), Path(records_path)
        rerun = "re-run ingest"
        if not records_path.exists():
            raise CorpusError(f"{records_path} does not exist; {rerun}")
        if not path.exists():
            raise CorpusError(f"{path} does not exist; {rerun}")
        buffer = bytearray(_BLOCK_BYTES)
        with path.open("rb") as fh:
            try:
                members = _checked_members(fh, buffer)
            except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
                raise CorpusError(f"{path} is unreadable ({exc}); {rerun}") from None
            try:
                corpus, recorded_sha = cls._from_members(fh.fileno(), members)
            except (KeyError, ValueError, IndexError, TypeError) as exc:
                raise CorpusError(f"{path} is malformed ({exc}); {rerun}") from None
            except OSError as exc:
                raise CorpusError(f"{path} is unreadable ({exc}); {rerun}") from None
        digest = hashlib.sha256()
        with records_path.open("rb") as fh:
            for chunk in _chunks(fh, os.fstat(fh.fileno()).st_size, buffer):
                digest.update(chunk)
        if recorded_sha != digest.hexdigest():
            raise CorpusError(
                f"{path} was not written from the current {records_path.name} "
                f"(sha256 mismatch); {rerun}"
            )
        return corpus

    @classmethod
    def _from_members(cls, fd: int, members: dict[str, _Member]) -> tuple["Corpus", str]:
        version = int(_mapped(fd, members["version"]))
        if version != FORMAT_VERSION:
            raise ValueError(f"format version {version}, expected {FORMAT_VERSION}")
        accounts = _strings(fd, members, "account")
        languages = _strings(fd, members, "language")
        account_ids, language_ids = tuple(accounts.tolist()), tuple(languages.tolist())
        for name, table in (("account", account_ids), ("language", language_ids)):
            if any(x >= y for x, y in zip(table, table[1:])):
                raise ValueError(f"{name} table is not strictly sorted")
        user = _column(fd, members, "user")
        n = len(user)
        columns = {
            name: _column(fd, members, name, n) for name in ("source", "timestamp_us", "language")
        }
        tweet_id, text = _strings(fd, members, "tweet_id", n), _strings(fd, members, "text", n)
        for name, col, lo, hi in (
            ("user", user, 0, len(account_ids)),
            ("source", columns["source"], -1, len(account_ids)),
            ("language", columns["language"], 0, len(language_ids)),
        ):
            if n and (col.min() < lo or col.max() >= hi):
                raise ValueError(f"{name} codes outside [{lo}, {hi})")
        corpus = cls(
            account_ids=account_ids,
            user=user,
            source=columns["source"],
            timestamp_us=columns["timestamp_us"],
            language_ids=language_ids,
            language=columns["language"],
            tweet_id=tweet_id,
            text=text,
        )
        return corpus, str(_mapped(fd, members["records_sha256"]))


class Codes(dict):
    """String -> code, in the order the strings are first looked up; None
    (no retweet source) is -1."""

    def __init__(self) -> None:
        super().__init__({None: -1})

    def __missing__(self, key: str) -> int:
        code = self[key] = len(self) - 1
        return code

    def sorted_table(self) -> tuple[tuple[str, ...], np.ndarray]:
        """The sorted table of the strings, and per code its place in that
        table; the extra last entry keeps code -1 at -1."""
        keys = list(self)[1:]
        order = sorted(range(len(keys)), key=keys.__getitem__)
        place = np.full(len(keys) + 1, -1, dtype=np.int64)
        place[order] = np.arange(len(keys))
        return tuple(keys[i] for i in order), place


_INT_COLUMNS = ("user", "source", "timestamp_us", "language", "tweet_id_bytes", "text_bytes")


class CorpusRows:
    """The one builder of a :class:`Corpus`, from blocks of rows: one id
    table for accounts and one for languages, the int columns in memory, and
    the bytes of the tweet ids and texts written to two unnamed files in
    ``spill_dir`` (None: the default temporary directory) as each block
    comes in.

    :meth:`build` hands each file to the corpus's string column of it, which
    reads its bytes with ``os.pread`` as :meth:`Corpus.load`'s columns read
    the sidecar; so a file stays open as long as its column lives, and
    leaves no name behind.
    """

    def __init__(self, spill_dir: str | Path | None) -> None:
        self._files = {
            name: tempfile.TemporaryFile(dir=spill_dir) for name in ("tweet_id", "text")
        }
        self._accounts, self._languages = Codes(), Codes()
        self._blocks: dict[str, list[np.ndarray]] = {name: [] for name in _INT_COLUMNS}
        self._rows = 0

    def __len__(self) -> int:
        return self._rows

    def add_rows(
        self,
        tweet_id: list[str],
        user: list[str],
        source: list[str | None],
        timestamp_us: np.ndarray,
        language: list[str],
        text: list[str],
    ) -> None:
        """Append rows, one list per column; ``source`` is None for a tweet
        that is not a retweet."""
        n = len(user)
        accounts = self._accounts.__getitem__
        columns = {
            "user": np.fromiter(map(accounts, user), np.int64, n),
            "source": np.fromiter(map(accounts, source), np.int64, n),
            "timestamp_us": np.asarray(timestamp_us, dtype=np.int64),
            "language": np.fromiter(map(self._languages.__getitem__, language), np.int64, n),
        }
        for name, strings in (("tweet_id", tweet_id), ("text", text)):
            blob, columns[f"{name}_bytes"] = _encoded(strings)
            self._files[name].write(blob)
        for name, values in columns.items():
            self._blocks[name].append(values)
        self._rows += n

    def mark(self) -> tuple[int, ...]:
        """The state to roll back to: rows, blocks, ids and bytes so far."""
        return (
            self._rows,
            len(self._blocks["user"]),
            len(self._accounts),
            len(self._languages),
            *(fh.tell() for fh in self._files.values()),
        )

    def roll_back(self, mark: tuple[int, ...]) -> None:
        """Drop every row, id and byte added since ``mark``."""
        self._rows, n_blocks, n_accounts, n_languages, *sizes = mark
        for blocks in self._blocks.values():
            del blocks[n_blocks:]
        for ids, n in ((self._accounts, n_accounts), (self._languages, n_languages)):
            while len(ids) > n:
                ids.popitem()  # the last id added
        for fh, size in zip(self._files.values(), sizes):
            fh.seek(size)
            fh.truncate()

    def build(self) -> Corpus:
        """The rows added, coded against the sorted id tables; call it once,
        as the spill files go to the corpus. Each column's blocks are moved
        into it one at a time, so one block is the transient; the byte
        counts become offsets in place."""
        account_ids, account_place = self._accounts.sorted_table()
        language_ids, language_place = self._languages.sorted_table()
        place = {"user": account_place, "source": account_place, "language": language_place}
        columns = {}
        for name, blocks in self._blocks.items():
            lo = int(name.endswith("_bytes"))  # offsets start with a 0
            column = np.zeros(lo + self._rows, dtype=np.int64)
            blocks.reverse()
            while blocks:
                block = blocks.pop()
                column[lo : lo + len(block)] = place[name][block] if name in place else block
                lo += len(block)
            columns[name] = column
        strings = {}
        for name, fh in self._files.items():
            offsets = columns.pop(f"{name}_bytes")
            np.cumsum(offsets, out=offsets)
            strings[name] = _spilled(fh, offsets)
        return Corpus(
            account_ids=account_ids,
            language_ids=language_ids,
            **columns,
            **strings,
        )


class _Member(NamedTuple):
    """A stored ``.npy`` member: its values' dtype, shape and file position."""

    dtype: np.dtype
    shape: tuple[int, ...]
    start: int


def _checked_members(fh: BinaryIO, buffer: bytearray) -> dict[str, _Member]:
    """Each ``.npy`` member of a stored zip, by name less ``.npy``, once the
    checks ``zipfile`` makes on a read have passed (the local header's
    signature and name, the member's size and CRC-32, its bytes read through
    ``buffer``) and its npy header agrees with its size."""
    members = {}
    with zipfile.ZipFile(fh) as zf:
        for info in zf.infolist():
            if info.compress_type != zipfile.ZIP_STORED:
                raise ValueError(f"member {info.filename} is compressed")
            with zf.open(info):  # checks the local header's signature and name
                pass
            fh.seek(info.header_offset)
            name_length, extra_length = _LOCAL_HEADER.unpack(fh.read(_LOCAL_HEADER.size))
            start = fh.seek(name_length + extra_length, os.SEEK_CUR)
            crc = 0
            try:
                for chunk in _chunks(fh, info.file_size, buffer):
                    crc = zlib.crc32(chunk, crc)
            except EOFError:
                raise EOFError(f"member {info.filename} is truncated") from None
            if crc != info.CRC:
                raise ValueError(f"member {info.filename}: bad CRC-32")
            fh.seek(start)
            version = np.lib.format.read_magic(fh)
            if version != (1, 0):
                raise ValueError(f"member {info.filename}: npy format {version}, expected (1, 0)")
            # Every column is 1-d, so the header's Fortran-order flag changes
            # nothing; np.frombuffer refuses an object dtype.
            shape, _, dtype = np.lib.format.read_array_header_1_0(fh)
            body = fh.tell()
            claimed = body - start + math.prod(shape) * dtype.itemsize
            if claimed != info.file_size:
                raise ValueError(
                    f"member {info.filename}: header claims {claimed} "
                    f"bytes, the member holds {info.file_size}"
                )
            members[info.filename.removesuffix(".npy")] = _Member(dtype, shape, body)
    return members


def _mapped(fd: int, member: _Member) -> np.ndarray:
    """A member's values as a read-only view into a map of its pages alone."""
    count = math.prod(member.shape)
    if not count:
        return np.frombuffer(b"", dtype=member.dtype).reshape(member.shape)
    lo = member.start - member.start % mmap.ALLOCATIONGRANULARITY
    size = member.start + count * member.dtype.itemsize - lo
    data = mmap.mmap(fd, size, access=mmap.ACCESS_READ, offset=lo)
    return np.frombuffer(data, member.dtype, count, member.start - lo).reshape(member.shape)


def _column(fd: int, members: dict[str, _Member], name: str, n: int | None = None) -> np.ndarray:
    dtype, shape, _ = members[name]
    if dtype != np.int64 or len(shape) != 1:
        raise ValueError(f"{name}: dtype {dtype}, shape {shape}; want 1-d int64")
    if n is not None and shape[0] != n:
        raise ValueError(f"{name}: {shape[0]} rows, want {n}")
    return _mapped(fd, members[name])


def _strings(
    fd: int, members: dict[str, _Member], name: str, n: int | None = None
) -> StringColumn:
    """A column whose bytes are read from the member ``<name>_blob``."""
    dtype, shape, start = members[f"{name}_blob"]
    if dtype != np.uint8 or len(shape) != 1:
        raise ValueError(f"{name}_blob: dtype {dtype}, shape {shape}")
    offsets = _column(fd, members, f"{name}_offsets", None if n is None else n + 1)
    if len(offsets) == 0 or offsets[0] != 0 or offsets[-1] != shape[0]:
        raise ValueError(f"{name}_offsets do not span the blob")
    if np.any(np.diff(offsets) < 0):
        raise ValueError(f"{name}_offsets are not monotone")
    return StringColumn(fd=os.dup(fd), start=start, offsets=offsets)
