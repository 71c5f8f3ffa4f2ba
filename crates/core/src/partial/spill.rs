//! Disk spill tier for partial maps: evicted chunks serialize to
//! per-column spill files and *reload* on re-access instead of being
//! recracked from the base columns. Only chunks whose rebuild would read
//! a segmented (file-backed) base column come here; chunks of in-memory
//! columns are dropped (see `PartialSet::evict_chunk`).
//!
//! This deliberately goes beyond §3.5 of the paper (which only discards
//! under the storage budget): a spilled chunk keeps its full state —
//! head (unless dropped), tail, cracker index, LFU counters and, most
//! importantly, its **tape cursor**, i.e. the staged-update watermark.
//! On reload the chunk re-enters the area exactly where it left and the
//! ordinary partial-alignment machinery replays whatever the tape
//! accumulated while it was cold, so un-merge/update-replay semantics
//! are preserved by construction: an area with spilled chunks stays
//! fetched and keeps its tape (it only reverts to unfetched — returning
//! merged updates to the staged lists — once *neither* resident nor
//! spilled chunks remain).
//!
//! Record format (little-endian, length-prefixed, checksummed):
//!
//! ```text
//! [ 0.. 4)  magic "CKSP"
//! [ 4.. 8)  u32 version (3)
//! [ 8..16)  u64 payload length
//! [16..  )  payload:
//!             u64 flags (bit0: head present)
//!             u64 tape cursor (staged-update watermark)
//!             u64 LFU access count
//!             u64 last-access clock (eviction recency; v2)
//!             u64 n (tuples)
//!             u64 front slack (free slots before the tuples; v3)
//!             n × i64 head values     (only when bit0 set)
//!             n × i64 tail values
//!             u64 live boundary count
//!             per boundary: i64 value, u64 position,
//!                           u8 kind (0 = Lt, 1 = Le), u8 advisory,
//!                           6 bytes padding
//! [16+len)  u64 word-wise multiply-xor checksum of the payload
//! ```
//!
//! The checksum deliberately is *not* the byte-serial FNV-1a the segment
//! files use: spill records are written and verified on the query path
//! (every eviction and every reload), so the checksum runs word-at-a-time
//! — one multiply-xor mix per 8 payload bytes — to keep a reload
//! measurably cheaper than recracking the chunk from the base.
//!
//! Only *live* boundaries are serialized: lazily deleted shell nodes are
//! invisible to answers, so dropping them across a spill round-trip
//! cannot change any result.

use super::Chunk;
use crackdb_columnstore::lock_unpoisoned;
use crackdb_columnstore::storage::StorageError;
use crackdb_columnstore::types::Val;
use crackdb_cracking::crack::BoundKind;
use crackdb_cracking::CrackerIndex;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

const SPILL_MAGIC: [u8; 4] = *b"CKSP";
/// v2 added the last-access clock to the payload so eviction scoring
/// survives a spill round-trip; v3 the front slack, so a reloaded chunk
/// ripples toward the same ends as its siblings. Decoding stays strict:
/// a version we did not write is corruption, not a compatibility case.
const SPILL_VERSION: u32 = 3;
const HEADER_LEN: usize = 16;

/// Location of one spilled chunk inside its column's spill file.
#[derive(Debug, Clone, Copy)]
pub struct SpillSlot {
    /// Byte offset of the record.
    pub offset: u64,
    /// Record length in bytes.
    pub bytes: u32,
    /// Slot capacity (>= bytes; slots are recycled first-fit).
    pub cap: u32,
    /// Tuples in the spilled chunk (for budget accounting on reload).
    pub tuples: u32,
}

/// One per-column spill file with a free list of released slots.
#[derive(Debug)]
struct SpillFile {
    file: File,
    end: u64,
    /// Released `(offset, cap)` slots, reused best-fit.
    free: Vec<(u64, u32)>,
}

#[derive(Debug)]
struct SpillShared {
    dir: PathBuf,
    label: String,
    files: Mutex<HashMap<usize, SpillFile>>,
}

impl SpillShared {
    fn path_for(&self, attr: usize) -> PathBuf {
        self.dir.join(format!("{}-col{attr}.spill", self.label))
    }
}

impl Drop for SpillShared {
    fn drop(&mut self) {
        // Best-effort cleanup: remove this tier's files, then the
        // directory if we were the last tier using it.
        if let Ok(files) = self.files.get_mut() {
            for attr in files.keys().copied().collect::<Vec<_>>() {
                std::fs::remove_file(self.path_for(attr)).ok();
            }
        }
        std::fs::remove_dir(&self.dir).ok();
    }
}

/// The spill tier of one [`super::PartialSet`]: per-tail-attribute spill
/// files under a directory. Cloning shares the files (a cloned set spills
/// into the same tier).
#[derive(Debug, Clone)]
pub struct SpillTier {
    inner: Arc<SpillShared>,
}

impl SpillTier {
    /// A tier writing files named `<label>-col<attr>.spill` under `dir`.
    /// The directory is created lazily on first write.
    pub fn new(dir: PathBuf, label: impl Into<String>) -> Self {
        SpillTier {
            inner: Arc::new(SpillShared {
                dir,
                label: label.into(),
                files: Mutex::new(HashMap::new()),
            }),
        }
    }

    /// Write one serialized chunk record to `attr`'s spill file, reusing
    /// a released slot when one fits.
    pub fn write(
        &self,
        attr: usize,
        record: &[u8],
        tuples: u32,
    ) -> Result<SpillSlot, StorageError> {
        let mut files = lock_unpoisoned(&self.inner.files);
        let sf = match files.entry(attr) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => {
                std::fs::create_dir_all(&self.inner.dir).map_err(|err| {
                    StorageError::new(
                        format!("create spill dir {}", self.inner.dir.display()),
                        err,
                    )
                })?;
                let path = self.inner.path_for(attr);
                let file = OpenOptions::new()
                    .read(true)
                    .write(true)
                    .create(true)
                    .truncate(true)
                    .open(&path)
                    .map_err(|err| {
                        StorageError::new(format!("create spill file {}", path.display()), err)
                    })?;
                e.insert(SpillFile {
                    file,
                    end: 0,
                    free: Vec::new(),
                })
            }
        };
        let len = record.len() as u32;
        // Best fit among released slots; otherwise append.
        let reuse = sf
            .free
            .iter()
            .enumerate()
            .filter(|(_, &(_, cap))| cap >= len)
            .min_by_key(|(_, &(_, cap))| cap)
            .map(|(i, _)| i);
        let (offset, cap) = match reuse {
            Some(i) => sf.free.swap_remove(i),
            None => {
                let off = sf.end;
                sf.end += len as u64;
                (off, len)
            }
        };
        sf.file.write_all_at(record, offset).map_err(|err| {
            StorageError::new(
                format!(
                    "write spill record to {}",
                    self.inner.path_for(attr).display()
                ),
                err,
            )
        })?;
        Ok(SpillSlot {
            offset,
            bytes: len,
            cap,
            tuples,
        })
    }

    /// Read back a record written by [`SpillTier::write`].
    pub fn read(&self, attr: usize, slot: SpillSlot) -> Result<Vec<u8>, StorageError> {
        let mut buf = Vec::new();
        self.read_into(attr, slot, &mut buf)?;
        Ok(buf)
    }

    /// Read a record into a caller-owned buffer (resized to the record
    /// length), so reload loops recycle one allocation across chunks.
    pub fn read_into(
        &self,
        attr: usize,
        slot: SpillSlot,
        buf: &mut Vec<u8>,
    ) -> Result<(), StorageError> {
        let files = lock_unpoisoned(&self.inner.files);
        let sf = files.get(&attr).ok_or_else(|| {
            StorageError::corrupt(
                format!("read spill record for column {attr}"),
                "no spill file for this column",
            )
        })?;
        buf.resize(slot.bytes as usize, 0);
        sf.file.read_exact_at(buf, slot.offset).map_err(|err| {
            StorageError::new(
                format!(
                    "read spill record from {}",
                    self.inner.path_for(attr).display()
                ),
                err,
            )
        })
    }

    /// Return a slot's bytes to the free list for reuse.
    pub fn release(&self, attr: usize, slot: SpillSlot) {
        let mut files = lock_unpoisoned(&self.inner.files);
        if let Some(sf) = files.get_mut(&attr) {
            sf.free.push((slot.offset, slot.cap));
        }
    }
}

/// Word-wise payload checksum: one multiply-xor mix per 8-byte word
/// (zero-padded tail), seeded with the length so truncation to a
/// zero-prefix cannot collide. ~8x the throughput of byte-serial FNV-1a,
/// which matters because this runs on every spill write *and* reload.
fn spill_checksum(bytes: &[u8]) -> u64 {
    const M: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ (bytes.len() as u64).wrapping_mul(M);
    let mut words = bytes.chunks_exact(8);
    // One xor + multiply per word: multiplication by an odd constant is
    // invertible, so corrupting any single word always changes the sum.
    for w in &mut words {
        // INVARIANT: chunks_exact(8) yields exactly-8-byte slices.
        let x = u64::from_le_bytes(w.try_into().expect("8-byte word"));
        h = (h ^ x).wrapping_mul(M);
    }
    let rem = words.remainder();
    if !rem.is_empty() {
        let mut last = [0u8; 8];
        last[..rem.len()].copy_from_slice(rem);
        h = (h ^ u64::from_le_bytes(last)).wrapping_mul(M);
    }
    // Final avalanche so low-entropy payload differences spread across
    // the full 64 bits.
    h ^= h >> 29;
    h.wrapping_mul(M) ^ (h >> 32)
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Bulk-append a value array in one resize + word-wise copy loop (the
/// per-value `extend_from_slice` path is 8-byte-at-a-time and dominates
/// encode time for real chunk sizes).
fn put_vals(out: &mut Vec<u8>, vals: &[Val]) {
    let start = out.len();
    out.resize(start + vals.len() * 8, 0);
    for (dst, v) in out[start..].chunks_exact_mut(8).zip(vals) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

/// Bulk-decode `n` values (the inverse of [`put_vals`]) into a buffer
/// after `front` free slots.
fn take_vals(r: &mut Reader<'_>, front: usize, n: usize) -> Result<Vec<Val>, String> {
    let raw = r.take(n * 8)?;
    let mut vals = Vec::with_capacity(front + n);
    vals.resize(front, 0);
    // INVARIANT: chunks_exact(8) yields exactly-8-byte slices.
    let word = |w: &[u8]| i64::from_le_bytes(w.try_into().expect("8-byte value"));
    vals.extend(raw.chunks_exact(8).map(word));
    Ok(vals)
}

/// Cursor over a byte slice with bounds-checked little-endian reads.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.pos + n > self.buf.len() {
            return Err(format!(
                "record truncated: need {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u64(&mut self) -> Result<u64, String> {
        // INVARIANT: take(8) returned a slice of exactly 8 bytes.
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn i64(&mut self) -> Result<i64, String> {
        // INVARIANT: take(8) returned a slice of exactly 8 bytes.
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
}

/// Serialize a chunk into a fresh spill record buffer.
pub fn encode_chunk(chunk: &Chunk) -> Vec<u8> {
    let mut out = Vec::new();
    encode_chunk_into(chunk, &mut out);
    out
}

/// Serialize a chunk into a recycled buffer (cleared first): eviction
/// loops reuse one allocation across arbitrarily many chunks.
pub fn encode_chunk_into(chunk: &Chunk, out: &mut Vec<u8>) {
    let n = chunk.len();
    let head = chunk.head();
    let bounds = chunk.index().boundaries();
    let payload_len = 8 * 6 + head.map_or(0, |h| h.len() * 8) + n * 8 + 8 + bounds.len() * 24;
    out.clear();
    out.reserve(HEADER_LEN + payload_len + 8);
    out.extend_from_slice(&SPILL_MAGIC);
    out.extend_from_slice(&SPILL_VERSION.to_le_bytes());
    put_u64(out, payload_len as u64);
    let payload_start = out.len();
    let flags: u64 = if head.is_some() { 1 } else { 0 };
    put_u64(out, flags);
    put_u64(out, chunk.cursor as u64);
    put_u64(out, chunk.accesses);
    put_u64(out, chunk.last_access);
    put_u64(out, n as u64);
    put_u64(out, chunk.index().origin() as u64);
    if let Some(h) = head {
        put_vals(out, h);
    }
    put_vals(out, chunk.tail());
    put_u64(out, bounds.len() as u64);
    for ((val, kind), pos) in bounds {
        put_i64(out, val);
        put_u64(out, pos as u64);
        out.push(match kind {
            BoundKind::Lt => 0,
            BoundKind::Le => 1,
        });
        out.push(chunk.index().is_advisory((val, kind)) as u8);
        out.extend_from_slice(&[0u8; 6]);
    }
    debug_assert_eq!(out.len() - payload_start, payload_len);
    let sum = spill_checksum(&out[payload_start..]);
    put_u64(out, sum);
}

/// Deserialize a spill record back into a chunk, verifying magic,
/// length and checksum. Corruption and truncation surface as
/// [`StorageError`]s with `InvalidData` sources.
pub fn decode_chunk(bytes: &[u8], context: &str) -> Result<Chunk, StorageError> {
    decode_inner(bytes).map_err(|detail| StorageError::corrupt(context.to_string(), detail))
}

fn decode_inner(bytes: &[u8]) -> Result<Chunk, String> {
    if bytes.len() < HEADER_LEN + 8 {
        return Err(format!("record too short ({} bytes)", bytes.len()));
    }
    if bytes[..4] != SPILL_MAGIC {
        return Err("bad record magic".into());
    }
    // INVARIANT: fixed 4-byte subrange of the length-checked header.
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4"));
    if version != SPILL_VERSION {
        return Err(format!("unsupported record version {version}"));
    }
    // INVARIANT: fixed 8-byte subrange of the length-checked header.
    let payload_len = u64::from_le_bytes(bytes[8..16].try_into().expect("8")) as usize;
    if bytes.len() != HEADER_LEN + payload_len + 8 {
        return Err(format!(
            "record length mismatch: header says {} payload bytes, record has {}",
            payload_len,
            bytes.len() - HEADER_LEN - 8
        ));
    }
    let payload = &bytes[HEADER_LEN..HEADER_LEN + payload_len];
    let expected = u64::from_le_bytes(
        bytes[HEADER_LEN + payload_len..]
            .try_into()
            // INVARIANT: the length check above pins the record to
            // exactly HEADER_LEN + payload_len + 8 bytes: 8-byte tail.
            .expect("8-byte checksum"),
    );
    let actual = spill_checksum(payload);
    if actual != expected {
        return Err(format!(
            "record checksum mismatch (expected {expected:#x}, got {actual:#x})"
        ));
    }
    let mut r = Reader {
        buf: payload,
        pos: 0,
    };
    let flags = r.u64()?;
    let cursor = r.u64()? as usize;
    let accesses = r.u64()?;
    let last_access = r.u64()?;
    let n = r.u64()? as usize;
    let origin = r.u64()? as usize;
    // A chunk starts without front slack; each replayed delete adds at
    // most one slot.
    if origin > cursor {
        return Err(format!(
            "front slack {origin} exceeds the tape cursor {cursor}"
        ));
    }
    let head = if flags & 1 != 0 {
        Some(take_vals(&mut r, origin, n)?)
    } else {
        None
    };
    let tail = take_vals(&mut r, origin, n)?;
    let nbounds = r.u64()? as usize;
    let mut index = CrackerIndex::with_origin(origin);
    for _ in 0..nbounds {
        let val = r.i64()?;
        let pos = r.u64()? as usize;
        let raw = r.take(8)?;
        let kind = match raw[0] {
            0 => BoundKind::Lt,
            1 => BoundKind::Le,
            other => return Err(format!("bad boundary kind byte {other}")),
        };
        if pos > n {
            return Err(format!("boundary position {pos} exceeds chunk length {n}"));
        }
        if raw[1] != 0 {
            index.record_advisory((val, kind), pos);
        } else {
            index.record((val, kind), pos);
        }
    }
    Ok(Chunk::from_spill_parts(
        head,
        tail,
        index,
        cursor,
        accesses,
        last_access,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crackdb_columnstore::types::RangePred;

    fn cracked_chunk() -> Chunk {
        let mut c = Chunk::seed(
            vec![12, 3, 5, 9, 15, 22, 7],
            vec![120, 30, 50, 90, 150, 220, 70],
            None,
        );
        c.crack_range(&RangePred::open(4, 13));
        c.cursor = 3;
        c.accesses = 9;
        c.last_access = 41;
        c
    }

    #[test]
    fn chunk_record_roundtrip() {
        let c = cracked_chunk();
        let rec = encode_chunk(&c);
        let d = decode_chunk(&rec, "test").unwrap();
        assert_eq!(d.head(), c.head());
        assert_eq!(d.tail(), c.tail());
        assert_eq!(d.cursor, 3);
        assert_eq!(d.accesses, 9);
        assert_eq!(d.last_access, 41);
        assert_eq!(d.index().boundaries(), c.index().boundaries());
        // range_of over the reloaded index matches.
        assert_eq!(
            d.range_of(&RangePred::open(4, 13)),
            c.range_of(&RangePred::open(4, 13))
        );
    }

    #[test]
    fn front_slack_survives_the_roundtrip() {
        let mut index = CrackerIndex::with_origin(2);
        index.record((9, BoundKind::Lt), 1);
        let (head, tail) = (vec![0, 0, 5, 12], vec![0, 0, 50, 120]);
        let c = Chunk::from_spill_parts(Some(head), tail.clone(), index, 3, 0, 0);
        let d = decode_chunk(&encode_chunk(&c), "test").unwrap();
        assert_eq!(d.index().origin(), 2);
        assert_eq!((d.head(), d.tail()), (Some(&[5, 12][..]), &[50, 120][..]));
        assert_eq!(d.index().boundaries(), vec![((9, BoundKind::Lt), 1)]);
        // More slack than the cursor's deletes can have made is corrupt.
        let index = CrackerIndex::with_origin(2);
        let c = Chunk::from_spill_parts(None, tail, index, 1, 0, 0);
        let err = decode_chunk(&encode_chunk(&c), "test").unwrap_err();
        assert!(err.to_string().contains("front slack 2"), "{err}");
    }

    #[test]
    fn head_dropped_roundtrip() {
        let mut c = cracked_chunk();
        c.drop_head();
        let d = decode_chunk(&encode_chunk(&c), "test").unwrap();
        assert!(d.head_dropped());
        assert_eq!(d.tail(), c.tail());
    }

    #[test]
    fn corrupted_record_is_rejected() {
        let c = cracked_chunk();
        let mut rec = encode_chunk(&c);
        let mid = rec.len() / 2;
        rec[mid] ^= 0xFF;
        let err = decode_chunk(&rec, "test").unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn truncated_record_is_rejected() {
        let c = cracked_chunk();
        let rec = encode_chunk(&c);
        let err = decode_chunk(&rec[..rec.len() - 10], "test").unwrap_err();
        assert!(err.to_string().contains("mismatch"), "{err}");
    }

    #[test]
    fn tier_write_read_release_reuse() {
        let mut dir = std::env::temp_dir();
        dir.push(format!("crackdb-spilltier-test-{}", std::process::id()));
        let tier = SpillTier::new(dir.clone(), "set0");
        let rec = encode_chunk(&cracked_chunk());
        let slot = tier.write(1, &rec, 7).unwrap();
        assert_eq!(tier.read(1, slot).unwrap(), rec);
        tier.release(1, slot);
        // A same-size record reuses the released slot.
        let slot2 = tier.write(1, &rec, 7).unwrap();
        assert_eq!(slot2.offset, slot.offset);
        drop(tier); // removes files and the directory
        assert!(!dir.exists());
    }
}
