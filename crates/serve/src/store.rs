//! The session store: one append-only file per spill directory that
//! holds every served session's on-disk state. This is the only module
//! that knows the on-disk format.
//!
//! ## Format
//!
//! The file [`STORE_FILE`] is an 8-byte magic followed by records:
//!
//! ```text
//! len   u32 LE   bytes after this field, the checksum included
//! kind  u8       1 journal, 2 snapshot, 3 end
//! id    u64 LE   the session
//! body           journal:  varint stream offset, the accepted bytes
//!                snapshot: varint LAYOUT_VERSION, varint acked offset,
//!                          the ingest's sections
//!                end:      nothing
//! sum   u64 LE   checksum of everything before it in the record
//! ```
//!
//! A journal record carries the stream offset of its first byte, so a
//! session's journal is the run of its records that continue one
//! another from offset 0; an `end` record retires every earlier record
//! of its session (an id may be opened again after it). The last session
//! with records to end gets no `end` record: the file is cut back to its
//! magic, which retires everything at the cost of one `ftruncate`. The
//! journal is layout-independent (trace bytes); a snapshot records the one
//! [`tsan_rt::codec::LAYOUT_VERSION`], and one of another version is
//! refused at restore like a damaged one.
//!
//! ## Index and restore
//!
//! The file is created on the first write and then held open. An
//! in-memory index holds, per session with records, its journal extents
//! and its newest snapshot; a restore reads them back with positioned
//! reads and verifies each record's checksum before believing it.
//!
//! ## Compaction
//!
//! Bytes the index no longer needs — superseded snapshots, ended
//! sessions — are dead. Once the file is past [`COMPACT_FLOOR`] and
//! its dead bytes outweigh its live ones (the magic plus the indexed
//! records), the live records are copied, in file order, into a fresh
//! file that then replaces the store by `rename`. The file thus stays
//! at most `max(COMPACT_FLOOR, 2 × live)` bytes. Neither compaction nor
//! recovery holds more than one bounded buffer of the file in memory.
//!
//! ## Recovery
//!
//! Recovery ([`crate::ServeEngine::recover`]) walks the file once,
//! verifying every journal and `end` record and stepping over each
//! snapshot record's body, which a restore verifies before believing
//! it (a damaged one is rebuilt from the journal records). A record
//! that its `len` field frames but whose checksum fails is skipped, and
//! the walk goes on: the damage costs that record's session alone,
//! which resumes from the journal records before it (a later one no
//! longer continues them) or, without any, is not recovered. Where
//! framing ends — a torn final record, cut short by a crash or a full
//! disk, or a `len` no record can have — the file is cut, since nothing
//! after it can be framed. Per-session files an older binary left in
//! the directory are logged and left in place, not recovered.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufRead, BufReader, Read, Seek, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use tsan_rt::codec::{put_varint, DecodeError, Scanner, LAYOUT_VERSION};

/// The store's file name inside the spill directory.
pub const STORE_FILE: &str = "sessions.store";

/// Name a compacted copy is written under before it replaces the store.
const COMPACT_FILE: &str = "sessions.store.compact";

/// First bytes of a store file.
const STORE_MAGIC: &[u8; 8] = b"cusanstr";

/// Store size below which dead bytes are never compacted away. At
/// 256 KiB a restart's scan reads at most that much (≈ 40 µs from the
/// page cache). Compaction costs a file create and a rename, but only
/// sessions whose records overlap pay it: whenever the last session with
/// records ends, the file is cut back to its magic instead.
pub const COMPACT_FLOOR: u64 = 256 << 10;

/// `len` field, kind and id.
const HEAD: usize = 4 + 1 + 8;
/// The checksum.
const SUM: usize = 8;
/// Smallest `len` a record can have: kind, id, checksum.
const MIN_LEN: u32 = (1 + 8 + SUM) as u32;

/// Bytes compaction and the recovery scan read at a time.
const IO_CHUNK: usize = 64 << 10;

/// What a record holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecordKind {
    /// Accepted session bytes at a stream offset.
    Journal,
    /// The session's ingest at an acked offset.
    Snapshot,
    /// The session is gone; its earlier records are dead.
    End,
}

impl RecordKind {
    fn byte(self) -> u8 {
        match self {
            RecordKind::Journal => 1,
            RecordKind::Snapshot => 2,
            RecordKind::End => 3,
        }
    }

    fn from_byte(b: u8) -> Option<RecordKind> {
        match b {
            1 => Some(RecordKind::Journal),
            2 => Some(RecordKind::Snapshot),
            3 => Some(RecordKind::End),
            _ => None,
        }
    }
}

/// One record of a store file as [`records`] and the recovery scan see
/// it: intact, or for a snapshot record, framed (see [`records`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    /// What the record holds.
    pub kind: RecordKind,
    /// The session it belongs to.
    pub id: u64,
    /// File offset of its `len` field.
    pub at: u64,
    /// Its bytes in the file, from `len` field to checksum.
    pub len: u64,
    /// File offset of its body.
    pub body: u64,
    /// A journal record's stream offset, a snapshot's acked offset.
    pub offset: u64,
}

/// Where one indexed record sits.
#[derive(Debug, Clone, Copy)]
struct Extent {
    at: u64,
    len: u64,
    /// Journal: stream offset of the first byte; snapshot: acked offset.
    offset: u64,
    /// Where a journal record's bytes start inside it.
    payload: usize,
}

/// The index entry of one session with records.
#[derive(Debug, Default)]
struct Entry {
    /// Journal records in stream order, contiguous from offset 0.
    journal: Vec<Extent>,
    /// Stream bytes the journal holds.
    journaled: u64,
    snapshot: Option<Extent>,
}

impl Entry {
    fn live_bytes(&self) -> u64 {
        self.journal.iter().map(|e| e.len).sum::<u64>() + self.snapshot.map_or(0, |e| e.len)
    }
}

/// The store of one spill directory (see the module docs).
pub(crate) struct Store {
    dir: PathBuf,
    /// `None` until the first write (or a recovered file).
    file: Option<File>,
    /// Bytes of the file that are the magic and framed records: the
    /// append position. 0 before the magic is written.
    len: u64,
    /// The magic plus every record the index points at.
    live: u64,
    index: HashMap<u64, Entry>,
}

/// 64-bit checksum, a word at a time: four lanes each fold every fourth
/// little-endian word with xor-multiply-rotate, then the lanes are
/// folded into the length. Each step is a bijection of the running value
/// for a fixed word, so damage confined to one word always changes the
/// sum; the four lanes keep the multiplies independent (≈ 0.06 ns/byte).
/// It catches damage, not an adversary who rewrites the file. Fed in
/// pieces of any size, it sums the same as over the whole.
#[derive(Clone)]
struct Checksum {
    lanes: [u64; 4],
    block: [u8; 32],
    filled: usize,
    total: u64,
}

fn mix(h: u64, word: &[u8]) -> u64 {
    let word = u64::from_le_bytes(word.try_into().expect("an 8-byte word"));
    (h ^ word)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(31)
}

impl Checksum {
    fn new() -> Checksum {
        Checksum {
            lanes: [1, 2, 3, 4],
            block: [0; 32],
            filled: 0,
            total: 0,
        }
    }

    fn fold(lanes: &mut [u64; 4], block: &[u8]) {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = mix(*lane, word);
        }
    }

    fn update(&mut self, mut bytes: &[u8]) {
        self.total += bytes.len() as u64;
        if self.filled > 0 {
            let take = bytes.len().min(32 - self.filled);
            self.block[self.filled..self.filled + take].copy_from_slice(&bytes[..take]);
            self.filled += take;
            bytes = &bytes[take..];
            if self.filled < 32 {
                return;
            }
            let block = self.block;
            Checksum::fold(&mut self.lanes, &block);
            self.filled = 0;
        }
        let mut blocks = bytes.chunks_exact(32);
        for block in &mut blocks {
            Checksum::fold(&mut self.lanes, block);
        }
        let rest = blocks.remainder();
        self.block[..rest.len()].copy_from_slice(rest);
        self.filled = rest.len();
    }

    fn finish(mut self) -> u64 {
        self.block[self.filled..].fill(0);
        let block = self.block;
        Checksum::fold(&mut self.lanes, &block);
        self.lanes
            .iter()
            .fold(self.total, |h, lane| mix(h, &lane.to_le_bytes()))
    }
}

fn checksum(bytes: &[u8]) -> u64 {
    let mut sum = Checksum::new();
    sum.update(bytes);
    sum.finish()
}

/// Start a record of `kind` for session `id` with room for `body`
/// more bytes; finish it with [`seal`]. Each record is built in its own
/// buffer and written with one `pwrite`, so the store keeps none.
fn begin_record(kind: RecordKind, id: u64, body: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEAD + body + SUM);
    buf.extend_from_slice(&[0; 4]);
    buf.push(kind.byte());
    buf.extend_from_slice(&id.to_le_bytes());
    buf
}

/// Fill in the `len` field of the record in `buf` and append its
/// checksum.
fn seal(buf: &mut Vec<u8>) -> Result<(), String> {
    let len = u32::try_from(buf.len() - 4 + SUM)
        .map_err(|_| format!("a {}-byte record exceeds the store's limit", buf.len()))?;
    buf[..4].copy_from_slice(&len.to_le_bytes());
    let sum = checksum(buf);
    buf.extend_from_slice(&sum.to_le_bytes());
    Ok(())
}

/// Recompute the checksum of `record` — one whole record, `len` field to
/// checksum — after its bytes were edited: what a test or tool that
/// writes records of its own needs.
pub fn reseal(record: &mut [u8]) {
    let body = record.len() - SUM;
    let sum = checksum(&record[..body]);
    record[body..].copy_from_slice(&sum.to_le_bytes());
}

/// A snapshot record of session `id` at acked offset `acked`, its
/// sections written by `sections`; [`Store::append_snapshot`] stores it.
/// Built apart from the store so encoding holds no lock.
pub(crate) struct SnapshotRecord {
    id: u64,
    acked: u64,
    bytes: Vec<u8>,
}

impl SnapshotRecord {
    pub(crate) fn build<E: std::fmt::Display>(
        id: u64,
        acked: u64,
        sections: impl FnOnce(&mut Vec<u8>) -> Result<(), E>,
    ) -> Result<SnapshotRecord, String> {
        let mut bytes = begin_record(RecordKind::Snapshot, id, 0);
        put_varint(&mut bytes, LAYOUT_VERSION);
        put_varint(&mut bytes, acked);
        sections(&mut bytes).map_err(|e| e.to_string())?;
        seal(&mut bytes)?;
        Ok(SnapshotRecord { id, acked, bytes })
    }
}

/// Decode a snapshot record read back by [`Store::snapshot`]: the value
/// `restore` builds from its sections and the acked offset it was taken
/// at. The layout version is checked first, so an older layout is
/// refused as such; then the checksum, so no field — the offset included
/// — is believed before the whole record is known intact. A snapshot
/// never runs ahead of the journal, so an offset beyond `acked` is
/// corruption like any other.
pub(crate) fn decode_snapshot<T>(
    record: &[u8],
    acked: u64,
    restore: impl FnOnce(&mut Scanner<'_>) -> Result<T, DecodeError>,
) -> Result<(T, u64), DecodeError> {
    let (body, sum) = record.split_at(record.len().saturating_sub(SUM));
    let mut s = Scanner::new(body);
    s.take(HEAD)?;
    match s.varint()? {
        LAYOUT_VERSION => {}
        got => return Err(DecodeError::UnsupportedVersion { got }),
    }
    if sum != checksum(body).to_le_bytes() {
        return Err(DecodeError::Corrupt {
            at: body.len(),
            what: "checksum mismatch".to_string(),
        });
    }
    let taken_at = s.varint()?;
    if taken_at > acked {
        return Err(s.corrupt(format!(
            "taken at offset {taken_at}, journal ends at {acked}"
        )));
    }
    let value = restore(&mut s)?;
    s.expect_end()?;
    Ok((value, taken_at))
}

/// Reads the records of a store file in order with one bounded buffer,
/// verifying each but a snapshot record's body, which is verified where
/// it is read back ([`decode_snapshot`]). Stops where framing ends; skips
/// a record that is framed but damaged.
struct Scan<R> {
    reader: BufReader<R>,
    /// File offset of the next record: once the scan has stopped, the
    /// end of the last framed record.
    pos: u64,
    file_len: u64,
    /// Framed records skipped as damaged.
    damaged: u64,
}

impl<R: Read + Seek> Scan<R> {
    /// Past the magic, or `None` when the file does not start with it.
    fn new(inner: R, file_len: u64) -> io::Result<Option<Scan<R>>> {
        let mut reader = BufReader::with_capacity(IO_CHUNK, inner);
        let mut magic = [0u8; 8];
        if file_len < magic.len() as u64 {
            return Ok(None);
        }
        reader.read_exact(&mut magic)?;
        if &magic != STORE_MAGIC {
            return Ok(None);
        }
        Ok(Some(Scan {
            reader,
            pos: magic.len() as u64,
            file_len,
            damaged: 0,
        }))
    }

    /// The next intact record, or `None` where framing ends: at the end
    /// of the file, or at a `len` field no record can have (below the
    /// smallest record, or past the end of the file: a torn tail). A
    /// record that `len` frames but whose checksum fails, or whose head
    /// does not parse, is skipped: the records after it are still
    /// framed, so one damaged record costs only its own session.
    ///
    /// A snapshot record's body is stepped over unread: it is most of
    /// the store's bytes, and a restore checks its checksum before
    /// believing any of it, so one damaged here is refused there and
    /// its session rebuilt from the journal records, which are checked
    /// here because their lengths are what recovery re-registers.
    fn next_record(&mut self) -> io::Result<Option<Record>> {
        loop {
            let left = self.file_len - self.pos;
            if left < 4 {
                return Ok(None);
            }
            let mut len_bytes = [0u8; 4];
            self.reader.read_exact(&mut len_bytes)?;
            let len = u32::from_le_bytes(len_bytes);
            if len < MIN_LEN || u64::from(len) > left - 4 {
                return Ok(None);
            }
            let mut sum = Checksum::new();
            sum.update(&len_bytes);
            // The head: kind, id and up to two varints of the body.
            let mut head = [0u8; 1 + 8 + 20];
            let unsummed = len as usize - SUM;
            let head_len = head.len().min(unsummed);
            self.reader.read_exact(&mut head[..head_len])?;
            sum.update(&head[..head_len]);
            let mut rest = unsummed - head_len;
            let intact = if head[0] == RecordKind::Snapshot.byte() {
                self.reader.seek_relative((rest + SUM) as i64)?;
                true
            } else {
                while rest > 0 {
                    let buf = self.reader.fill_buf()?;
                    if buf.is_empty() {
                        return Err(io::ErrorKind::UnexpectedEof.into());
                    }
                    let take = buf.len().min(rest);
                    sum.update(&buf[..take]);
                    self.reader.consume(take);
                    rest -= take;
                }
                let mut stored = [0u8; SUM];
                self.reader.read_exact(&mut stored)?;
                sum.finish() == u64::from_le_bytes(stored)
            };
            let at = self.pos;
            self.pos += u64::from(len) + 4;
            let record = intact
                .then(|| parse_head(&head[..head_len], at, u64::from(len) + 4))
                .flatten();
            match record {
                Some(record) => return Ok(Some(record)),
                None => self.damaged += 1,
            }
        }
    }
}

/// The [`Record`] whose head (kind, id, the start of its body) is
/// `head`, at file offset `at`, `len` bytes long; `None` when
/// the head does not parse (an unknown kind, a varint cut by the end of
/// the record).
fn parse_head(head: &[u8], at: u64, len: u64) -> Option<Record> {
    let mut s = Scanner::new(head);
    let kind = RecordKind::from_byte(s.u8().ok()?)?;
    let id = s.u64_le().ok()?;
    let body = s.pos();
    let offset = match kind {
        RecordKind::Journal => s.varint().ok()?,
        RecordKind::Snapshot => {
            s.varint().ok()?;
            s.varint().ok()?
        }
        RecordKind::End => 0,
    };
    Some(Record {
        kind,
        id,
        at,
        len,
        body: at + 4 + body as u64,
        offset,
    })
}

/// Every record of the store file at `path` that a recovery indexes, in
/// file order: intact journal and end records, framed snapshot records
/// (whose checksum a restore checks). For tests and tooling.
pub fn records(path: &Path) -> io::Result<Vec<Record>> {
    let file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut out = Vec::new();
    if let Some(mut scan) = Scan::new(file, file_len)? {
        while let Some(record) = scan.next_record()? {
            out.push(record);
        }
    }
    Ok(out)
}

impl Store {
    /// An empty store for `dir`. Its first write creates the file,
    /// replacing any store a previous process left there (use
    /// [`Store::recover`] to keep one).
    pub(crate) fn new(dir: PathBuf) -> Store {
        Store {
            dir,
            file: None,
            len: 0,
            live: 0,
            index: HashMap::new(),
        }
    }

    /// The store file's path.
    pub(crate) fn path(&self) -> PathBuf {
        self.dir.join(STORE_FILE)
    }

    /// Open the store `dir` holds and index it: every session with an
    /// unfinished journal, with the length of that journal. A damaged
    /// record is skipped; where framing ends before the file does, the
    /// rest is cut off.
    pub(crate) fn recover(dir: PathBuf) -> io::Result<(Store, Vec<(u64, u64)>)> {
        note_legacy_files(&dir);
        let _ = fs::remove_file(dir.join(COMPACT_FILE));
        let mut store = Store::new(dir);
        let path = store.path();
        let file = match OpenOptions::new().read(true).write(true).open(&path) {
            Ok(file) => file,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((store, Vec::new())),
            Err(e) => return Err(e),
        };
        let file_len = file.metadata()?.len();
        let mut index: HashMap<u64, Entry> = HashMap::new();
        let mut framed = 0;
        if let Some(mut scan) = Scan::new(&file, file_len)? {
            while let Some(r) = scan.next_record()? {
                index_record(&mut index, &r);
            }
            framed = scan.pos;
            if scan.damaged > 0 {
                eprintln!(
                    "cusan-serve: {}: skipped {} damaged records",
                    path.display(),
                    scan.damaged
                );
            }
        }
        if framed < file_len {
            eprintln!(
                "cusan-serve: {}: cut {} bytes from byte {framed} (a torn record)",
                path.display(),
                file_len - framed
            );
            file.set_len(framed)?;
        }
        // A session is recovered at the length of its journal; one with
        // none has nothing to resume, and a snapshot past the journal's
        // end cannot be continued from it.
        index.retain(|_, e| e.journaled > 0);
        for e in index.values_mut() {
            if e.snapshot.is_some_and(|s| s.offset > e.journaled) {
                e.snapshot = None;
            }
        }
        let mut sessions: Vec<(u64, u64)> =
            index.iter().map(|(id, e)| (*id, e.journaled)).collect();
        sessions.sort_unstable();
        store.live = if framed == 0 {
            0
        } else {
            STORE_MAGIC.len() as u64
        } + index.values().map(Entry::live_bytes).sum::<u64>();
        store.index = index;
        store.len = framed;
        store.file = Some(file);
        Ok((store, sessions))
    }

    /// The open file, created (with its magic) on first use.
    fn file(&mut self) -> io::Result<&File> {
        if self.file.is_none() {
            let _ = fs::remove_file(self.dir.join(COMPACT_FILE));
            let file = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(self.path())?;
            self.file = Some(file);
            self.len = 0;
        }
        let file = self.file.as_ref().expect("opened above");
        if self.len == 0 {
            file.write_all_at(STORE_MAGIC, 0)?;
            self.len = STORE_MAGIC.len() as u64;
            self.live += self.len;
        }
        Ok(file)
    }

    /// Append the sealed record in `bytes`. A failed write is cut back
    /// off, so the file never keeps half a record the index lacks.
    fn append(&mut self, bytes: &[u8]) -> io::Result<u64> {
        self.file()?;
        let at = self.len;
        let file = self.file.as_ref().expect("opened above");
        if let Err(e) = file.write_all_at(bytes, at) {
            let _ = file.set_len(at);
            return Err(e);
        }
        self.len = at + bytes.len() as u64;
        Ok(at)
    }

    /// Journal `bytes`, the accepted stream bytes of session `id` from
    /// stream offset `offset` (where its journal ends).
    pub(crate) fn append_journal(
        &mut self,
        id: u64,
        offset: u64,
        bytes: &[u8],
    ) -> Result<(), String> {
        // Recovery drops a record that does not continue its session's
        // journal, and with it every later one: refuse to write it.
        let journaled = self.index.get(&id).map_or(0, |e| e.journaled);
        if journaled != offset {
            return Err(format!(
                "session {id}: journal ends at {journaled}, not at {offset}"
            ));
        }
        let mut buf = begin_record(RecordKind::Journal, id, 10 + bytes.len());
        put_varint(&mut buf, offset);
        let payload = buf.len();
        buf.extend_from_slice(bytes);
        let appended = seal(&mut buf).and_then(|()| {
            self.append(&buf)
                .map_err(|e| format!("journal {}: {e}", self.path().display()))
        });
        let len = buf.len() as u64;
        let at = appended?;
        let entry = self.index.entry(id).or_default();
        entry.journal.push(Extent {
            at,
            len,
            offset,
            payload,
        });
        entry.journaled = offset + bytes.len() as u64;
        self.live += len;
        self.compact_if_needed();
        Ok(())
    }

    /// Store `record` as its session's newest snapshot; the one before
    /// it is dead.
    pub(crate) fn append_snapshot(&mut self, record: SnapshotRecord) -> Result<(), String> {
        let at = self
            .append(&record.bytes)
            .map_err(|e| format!("{}: {e}", self.path().display()))?;
        let len = record.bytes.len() as u64;
        let entry = self.index.entry(record.id).or_default();
        let old = entry.snapshot.replace(Extent {
            at,
            len,
            offset: record.acked,
            payload: 0,
        });
        self.live = self.live + len - old.map_or(0, |e| e.len);
        self.compact_if_needed();
        Ok(())
    }

    /// Session `id` is gone: its records are dead. Writes an `end`
    /// record only when it has records, and not even then when it was
    /// the last session with any: the file is cut back to its magic
    /// instead. Best effort, since a session that is gone has nobody to
    /// report a failure to.
    pub(crate) fn end(&mut self, id: u64) {
        let Some(entry) = self.index.remove(&id) else {
            return;
        };
        self.live -= entry.live_bytes();
        if self.index.is_empty() && self.cut_to_magic().is_ok() {
            return;
        }
        let mut buf = begin_record(RecordKind::End, id, 0);
        if seal(&mut buf).is_ok() {
            if let Err(e) = self.append(&buf) {
                eprintln!(
                    "cusan-serve: {}: ending session {id}: {e}",
                    self.path().display()
                );
            }
        }
        self.compact_if_needed();
    }

    /// Cut the file back to its magic: what compaction leaves when no
    /// record is live, without a second file.
    fn cut_to_magic(&mut self) -> io::Result<()> {
        let file = self.file.as_ref().ok_or(io::ErrorKind::NotFound)?;
        let magic = STORE_MAGIC.len() as u64;
        file.set_len(magic)?;
        self.len = magic;
        self.live = magic;
        Ok(())
    }

    /// The bytes of session `id`'s newest snapshot record, for
    /// [`decode_snapshot`]; `None` when it has none.
    pub(crate) fn snapshot(&self, id: u64) -> Option<io::Result<Vec<u8>>> {
        let extent = self.index.get(&id)?.snapshot?;
        Some(self.read_extent(extent))
    }

    /// Forget session `id`'s snapshot (it did not decode): its journal
    /// rebuilds the session.
    pub(crate) fn drop_snapshot(&mut self, id: u64) {
        if let Some(old) = self.index.get_mut(&id).and_then(|e| e.snapshot.take()) {
            self.live -= old.len;
        }
    }

    fn read_extent(&self, extent: Extent) -> io::Result<Vec<u8>> {
        let file = self.file.as_ref().ok_or(io::ErrorKind::NotFound)?;
        let mut bytes = vec![0; extent.len as usize];
        file.read_exact_at(&mut bytes, extent.at)?;
        Ok(bytes)
    }

    /// Session `id`'s journaled stream bytes `[from, to)`, each record's
    /// checksum verified.
    pub(crate) fn read_journal(&self, id: u64, from: u64, to: u64) -> Result<Vec<u8>, String> {
        let mut out = Vec::with_capacity((to - from) as usize);
        let extents = self.index.get(&id).map_or(&[][..], |e| &e.journal[..]);
        for extent in extents {
            let end = extent.offset + (extent.len - extent.payload as u64 - SUM as u64);
            if end <= from || extent.offset >= to {
                continue;
            }
            let record = self.read_extent(*extent).and_then(|r| {
                let (body, sum) = r.split_at(r.len() - SUM);
                if sum != checksum(body).to_le_bytes() {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "checksum mismatch",
                    ));
                }
                Ok(r)
            });
            let record = record.map_err(|e| {
                format!(
                    "{}: journal record at byte {}: {e}; the store holds {} of {to} acked bytes",
                    self.path().display(),
                    extent.at,
                    from + out.len() as u64
                )
            })?;
            let bytes = &record[extent.payload..record.len() - SUM];
            let lo = from.saturating_sub(extent.offset) as usize;
            let hi = (to.min(end) - extent.offset) as usize;
            out.extend_from_slice(&bytes[lo..hi]);
        }
        if (out.len() as u64) < to - from {
            return Err(format!(
                "the store holds {} of {to} acked bytes",
                from + out.len() as u64
            ));
        }
        Ok(out)
    }

    fn compact_if_needed(&mut self) {
        if self.len > COMPACT_FLOOR && self.len.saturating_sub(self.live) > self.live {
            if let Err(e) = self.compact() {
                eprintln!("cusan-serve: compacting {}: {e}", self.path().display());
                let _ = fs::remove_file(self.dir.join(COMPACT_FILE));
            }
        }
    }

    /// Copy the live records, in file order, into a fresh file and put
    /// it in the store's place.
    fn compact(&mut self) -> io::Result<()> {
        let Some(old) = self.file.as_ref() else {
            return Ok(());
        };
        let mut extents: Vec<(u64, u64)> = self
            .index
            .values()
            .flat_map(|e| e.journal.iter().chain(&e.snapshot))
            .map(|x| (x.at, x.len))
            .collect();
        extents.sort_unstable();
        let tmp = self.dir.join(COMPACT_FILE);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        let mut out = io::BufWriter::with_capacity(IO_CHUNK, &file);
        out.write_all(STORE_MAGIC)?;
        let mut moved = HashMap::with_capacity(extents.len());
        let mut pos = STORE_MAGIC.len() as u64;
        let mut chunk = vec![0u8; IO_CHUNK];
        for (at, len) in extents {
            moved.insert(at, pos);
            let mut done = 0;
            while done < len {
                let n = (len - done).min(IO_CHUNK as u64) as usize;
                old.read_exact_at(&mut chunk[..n], at + done)?;
                out.write_all(&chunk[..n])?;
                done += n as u64;
            }
            pos += len;
        }
        out.flush()?;
        drop(out);
        fs::rename(&tmp, self.path())?;
        for e in self.index.values_mut() {
            for x in e.journal.iter_mut().chain(&mut e.snapshot) {
                x.at = moved[&x.at];
            }
        }
        self.file = Some(file);
        self.len = pos;
        self.live = pos;
        Ok(())
    }
}

/// Add an intact record to a recovering index.
fn index_record(index: &mut HashMap<u64, Entry>, r: &Record) {
    let payload = (r.body - r.at) as usize;
    match r.kind {
        RecordKind::Journal => {
            let entry = index.entry(r.id).or_default();
            // A record that does not continue the journal (left by an id
            // reused without an end record in between) starts nothing.
            if r.offset != entry.journaled {
                return;
            }
            let varint = varint_len(r.offset);
            let bytes = r.len - payload as u64 - varint as u64 - SUM as u64;
            entry.journal.push(Extent {
                at: r.at,
                len: r.len,
                offset: r.offset,
                payload: payload + varint,
            });
            entry.journaled += bytes;
        }
        RecordKind::Snapshot => {
            if let Some(entry) = index.get_mut(&r.id) {
                entry.snapshot = Some(Extent {
                    at: r.at,
                    len: r.len,
                    offset: r.offset,
                    payload: 0,
                });
            }
        }
        RecordKind::End => {
            index.remove(&r.id);
        }
    }
}

/// Bytes `put_varint` writes for `v`: one per started 7 bits.
fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Log the per-session files an older binary kept in `dir`: they are
/// not recovered, and left where they are.
fn note_legacy_files(dir: &Path) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let legacy = entries
        .filter_map(Result::ok)
        .filter(|e| {
            let name = e.file_name();
            let name = name.to_string_lossy();
            name.starts_with("session-") && (name.ends_with(".journal") || name.ends_with(".spill"))
        })
        .count();
    if legacy > 0 {
        eprintln!(
            "cusan-serve: {}: {legacy} per-session files of an older layout left in place, not recovered",
            dir.display()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_records_read_back_and_refuse_a_flipped_byte() {
        // A small record and one the size of a write-behind flush, read
        // back whole and in part; a flipped byte in either is refused.
        let dir = std::env::temp_dir().join(format!("cusan-store-journal-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let stream: Vec<u8> = (0..100 + (64 << 10) as u32)
            .map(|i| (i * 7 + 3) as u8)
            .collect();
        let (small, large) = stream.split_at(100);
        let mut store = Store::new(dir.clone());
        store.append_journal(1, 0, small).unwrap();
        store.append_journal(1, small.len() as u64, large).unwrap();
        let end = stream.len() as u64;
        assert_eq!(store.read_journal(1, 0, end).unwrap(), stream);
        assert_eq!(store.read_journal(1, 50, 5000).unwrap(), &stream[50..5000]);
        let records = records(&store.path()).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].at + records[1].len, store.len);
        let file = store.file.as_ref().unwrap();
        for r in &records {
            let at = r.at + r.len / 2;
            let mut byte = [0u8];
            file.read_exact_at(&mut byte, at).unwrap();
            file.write_all_at(&[byte[0] ^ 1], at).unwrap();
            assert!(store.read_journal(1, 0, end).is_err(), "record at {}", r.at);
            file.write_all_at(&byte, at).unwrap();
        }
        assert_eq!(store.read_journal(1, 0, end).unwrap(), stream);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_checksum_sees_every_flipped_byte() {
        // Lengths around the 32-byte block, so the zero-padded tail is
        // covered; each byte flipped in its low bit, its high bit and
        // whole.
        let bytes: Vec<u8> = (0..100u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in [0, 1, 7, 8, 31, 32, 33, 64, 100] {
            let data = &bytes[..len];
            let sum = checksum(data);
            for at in 0..len {
                for flip in [0x01, 0x80, 0xff] {
                    let mut damaged = data.to_vec();
                    damaged[at] ^= flip;
                    assert_ne!(checksum(&damaged), sum, "len {len}, byte {at}");
                }
            }
            // Zero padding does not hide a shorter or longer blob.
            let mut longer = data.to_vec();
            longer.push(0);
            assert_ne!(checksum(&longer), sum, "len {len} + a zero byte");
        }
    }

    #[test]
    fn the_checksum_is_the_same_in_pieces() {
        let bytes: Vec<u8> = (0..300u32).map(|i| (i * 91 + 7) as u8).collect();
        let whole = checksum(&bytes);
        for step in [1, 3, 8, 31, 32, 33, 100] {
            let mut sum = Checksum::new();
            for piece in bytes.chunks(step) {
                sum.update(piece);
            }
            assert_eq!(sum.finish(), whole, "pieces of {step}");
        }
    }
}
