//! The `BPTR` v3 block codec: bit-packed, delta-compressed, streaming.
//!
//! The paper's methodology replays multi-billion-instruction traces per
//! workload (§V-B); real Pin-based trace libraries spend 0.1–1.2 *bits*
//! per branch. A fixed-layout encoding (37 bytes per record, fully
//! materialized) cannot reach that scale, so v3 re-encodes the stream
//! around the two redundancies every retired-instruction trace has:
//!
//! * **Static locality** — the dynamic stream revisits a small set of
//!   static instructions. Each block builds a *dictionary* of unique
//!   static descriptors (ip, class, registers, branch kind, target) in
//!   first-appearance order; dynamic records are dictionary indices.
//!   Straight-line code makes the next index overwhelmingly predictable
//!   (`previous + 1`), so indices are emitted as a 1-bit hit/miss stream
//!   with explicit varint indices only on misses.
//! * **Payload sparsity** — `dst_value` and `mem_addr` are usually zero,
//!   and conditional-branch outcomes are a single bit. Non-zero values
//!   get presence bitmaps plus varints (memory addresses as zigzag
//!   deltas, which turn strided access patterns into one-byte codes);
//!   branch outcomes are a packed bitstream.
//!
//! A loop-dominated branch trace costs ~2–4 *bits* per instruction; the
//! worst case (random 64-bit `dst_value` every record) degrades to
//! roughly that fixed-layout cost, never beyond `MAX_BLOCK_PAYLOAD`.
//!
//! Records are grouped into blocks of [`BLOCK_RECORDS`]; every block is
//! independently decodable and carries its own FNV-1a trailer, so a torn
//! or bit-rotted region is detected at (and localized to) the block that
//! holds it, and decode proceeds block-wise with bounded memory no
//! matter how long the trace is. [`TraceWriter`] streams records in
//! without materializing them; the matching block reader lives in
//! [`crate::reader`].
//!
//! On-disk layout (little-endian throughout):
//!
//! ```text
//! file   := header block* end-marker <eof>
//! header := "BPTR" u16(version=3) u16(name_len) name u32(input) u64(count)
//! block  := u32(n_records>0) u32(payload_len) payload u64(fnv1a(frame+payload))
//! end    := u32(0) u32(0) u64(fnv1a over the 8 zero bytes)
//! ```
//!
//! `count == u64::MAX` marks a streamed file whose length was unknown at
//! header time; any other value is validated against the blocks' total.
//! Trailing bytes after the end marker are rejected.
//!
//! ```text
//! payload := varint(n_dict) dict-entry{n_dict}
//!            pred_bits[⌈n/8⌉] dstv_bits[⌈n/8⌉] mem_bits[⌈n/8⌉]
//!            varint{misses} taken_bits[⌈n_br/8⌉]
//!            varint{dst_values} zigzag-varint{mem_addr deltas}
//! dict-entry := flags(class|kind<<3) src1 src2 dst
//!               zigzag-varint(ip Δ prev entry)
//!               [zigzag-varint(target Δ ip) if kind != 0]
//! ```

use std::io::Write;

use crate::isa::BranchKind;
use crate::record::{BranchInfo, RetiredInst};
use crate::serialize::{
    class_code, decode_class, decode_kind, decode_reg, encode_reg, fnv1a, fnv1a_pair, kind_code,
    write_header,
    ReadTraceError, WriteTraceError, FNV_OFFSET,
};
use crate::trace::TraceMeta;

/// Records per v3 block. Large enough that dictionary and bitstream
/// overheads amortize to fractions of a bit per record, small enough
/// that one block's decode buffer stays a few megabytes at worst.
pub const BLOCK_RECORDS: usize = 1 << 16;

/// Hard ceiling on one block's encoded payload. The encoder's worst case
/// (all-miss indices, 10-byte varints everywhere, a full dictionary) is
/// under 4 MiB; anything larger in a header is hostile or corrupt and is
/// rejected *before* any allocation of that size.
pub const MAX_BLOCK_PAYLOAD: usize = 1 << 23;

/// Header `count` sentinel: record total unknown at header-write time.
pub(crate) const COUNT_UNKNOWN: u64 = u64::MAX;

// ---------------------------------------------------------------------------
// varints, zigzag deltas, bitstreams
// ---------------------------------------------------------------------------

/// Appends `v` as an LEB128 varint (1–10 bytes).
fn put_varint(out: &mut Vec<u8>, v: u64) {
    if v < 0x80 {
        out.push(v as u8);
        return;
    }
    // Branch-free: spread the 7-bit groups over the bytes of two words,
    // set the continuation bit on every byte but the last, store all 16
    // bytes and drop the unused tail. Trace values are often full-width,
    // so the 9- and 10-byte forms are common, not a slow path.
    let len = (64 - v.leading_zeros() as usize).div_ceil(7);
    let lo = v & ((1 << 56) - 1);
    let lo = (lo & 0x0fff_ffff) | (lo & 0x00ff_ffff_f000_0000) << 4;
    let lo = (lo & 0x0000_3fff_0000_3fff) | (lo & 0x0fff_c000_0fff_c000) << 2;
    let lo = (lo & 0x007f_007f_007f_007f) | (lo & 0x3f80_3f80_3f80_3f80) << 1;
    let hi = (v >> 56 & 0x7f) | (v >> 63) << 8;
    let cont = 0x8080_8080_8080_8080_8080_8080_8080_8080u128 & ((1u128 << (8 * (len - 1))) - 1);
    let word = (u128::from(hi) << 64 | u128::from(lo)) | cont;
    let at = out.len();
    out.extend_from_slice(&word.to_le_bytes());
    out.truncate(at + len);
}

/// Maps a wrapping difference onto small varints for both directions.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Encodes `cur` relative to `prev` (wrapping, so every u64 is reachable).
fn put_delta(out: &mut Vec<u8>, prev: u64, cur: u64) {
    put_varint(out, zigzag(cur.wrapping_sub(prev) as i64));
}

/// A bitstream built LSB-first, 64 bits to a word.
#[derive(Default)]
struct BitBuf {
    words: Vec<u64>,
    /// The partly filled word after `words`.
    cur: u64,
    len: usize,
}

impl BitBuf {
    /// Appends the low `n` bits of `bits` (`n <= 64`; bits above `n`
    /// must be zero).
    fn push_bits(&mut self, bits: u64, n: usize) {
        let used = self.len % 64;
        self.cur |= bits << used;
        self.len += n;
        if used + n >= 64 {
            self.words.push(self.cur);
            self.cur = if used == 0 { 0 } else { bits >> (64 - used) };
        }
    }

    /// Appends the stream as its `⌈len/8⌉` little-endian bytes.
    fn put(&self, out: &mut Vec<u8>) {
        let end = out.len() + self.len.div_ceil(8);
        for w in self.words.iter().chain([&self.cur]) {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out.truncate(end);
    }

    fn clear(&mut self) {
        self.words.clear();
        self.cur = 0;
        self.len = 0;
    }
}

/// Reads bit `i` of an LSB-first bitstream.
fn bit(bits: &[u8], i: usize) -> bool {
    bits[i / 8] >> (i % 8) & 1 != 0
}

/// A bounds-checked cursor over one block payload. Every overrun is a
/// structured decode error, never a panic or an oversized allocation.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cur { buf, pos: 0 }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], ReadTraceError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(ReadTraceError::Corrupt("block payload truncated"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn varint(&mut self) -> Result<u64, ReadTraceError> {
        let mut v = 0u64;
        for shift in 0..10 {
            let &byte = self
                .buf
                .get(self.pos)
                .ok_or(ReadTraceError::Corrupt("block payload truncated"))?;
            self.pos += 1;
            // The 10th byte may only contribute the final bit of a u64.
            if shift == 9 && byte > 1 {
                return Err(ReadTraceError::Corrupt("varint"));
            }
            v |= u64::from(byte & 0x7f) << (shift * 7);
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(ReadTraceError::Corrupt("varint"))
    }

    fn delta(&mut self, prev: u64) -> Result<u64, ReadTraceError> {
        Ok(prev.wrapping_add(unzigzag(self.varint()?) as u64))
    }

    fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

// ---------------------------------------------------------------------------
// the static-descriptor dictionary
// ---------------------------------------------------------------------------

/// One unique static descriptor: everything about a record except its
/// dynamic payload (`taken`, `dst_value`, `mem_addr`).
#[derive(Clone, Copy)]
struct DictEntry {
    ip: u64,
    /// Branch target (0 for non-branch records, which never read it).
    target: u64,
    class: u8,
    /// `kind_code` of the branch info, or 0 when `branch` is `None`.
    kind: u8,
    src1: u8,
    src2: u8,
    dst: u8,
}

/// The encoder's form of a [`DictEntry`]: its fixed four bytes, as the
/// dictionary section stores them (flags, src1, src2, dst), packed into
/// one word, so comparing or hashing a descriptor takes three word
/// operations.
#[derive(Clone, Copy, PartialEq, Eq)]
struct PackedEntry {
    ip: u64,
    /// Branch target (0 for non-branch records, which never read it).
    target: u64,
    head: u32,
}

impl PackedEntry {
    fn of(inst: &RetiredInst) -> Self {
        let (kind, target) = match inst.branch {
            Some(b) => (kind_code(b.kind), b.target),
            None => (0, 0),
        };
        let head = [
            class_code(inst.class) | kind << 3,
            encode_reg(inst.src1),
            encode_reg(inst.src2),
            encode_reg(inst.dst),
        ];
        PackedEntry { ip: inst.ip, target, head: u32::from_le_bytes(head) }
    }

    /// True when the entry has a branch kind, and so a target on disk.
    fn is_branch(&self) -> bool {
        self.head >> 3 & 0x7 != 0
    }
}

/// The encoder's map from dictionary entry to index: open addressing
/// with linear probing over `u32` slots that hold `stamp << 16 | index`
/// (a block's indices fit 16 bits). A slot is live only while its stamp
/// is the current block's, so starting a block is one increment, not a
/// clear. Keys are compared through the dictionary the indices point
/// into.
struct DictTable {
    slots: Vec<u32>,
    stamp: u32,
    /// `64 - log2(slots.len())`: hashes index by their top bits.
    shift: u32,
}

const _: () = assert!(BLOCK_RECORDS <= 1 << 16, "dictionary indices must fit a slot's low half");

impl Default for DictTable {
    fn default() -> Self {
        DictTable { slots: vec![0; 1 << 10], stamp: 0, shift: 64 - 10 }
    }
}

impl DictTable {
    /// Forgets every entry; called before each block, the first one too.
    fn next_block(&mut self) {
        self.stamp += 1;
        if self.stamp > 0xffff {
            self.slots.fill(0);
            self.stamp = 1;
        }
    }

    fn slot_of(&self, e: &PackedEntry) -> usize {
        let h = (e.ip ^ e.target.rotate_left(32) ^ u64::from(e.head) << 24)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (h >> self.shift) as usize
    }

    /// The index of `e` in `dict`, appending it (and recording the new
    /// index) if it is not there yet.
    fn index_of(&mut self, e: PackedEntry, dict: &mut Vec<PackedEntry>) -> usize {
        let live = self.stamp << 16;
        let mask = self.slots.len() - 1;
        let mut i = self.slot_of(&e);
        loop {
            let slot = self.slots[i];
            if slot & 0xffff_0000 != live {
                break;
            }
            let idx = (slot & 0xffff) as usize;
            if dict[idx] == e {
                return idx;
            }
            i = (i + 1) & mask;
        }
        let idx = dict.len();
        dict.push(e);
        self.slots[i] = live | idx as u32;
        // Keep the load under a half so probe runs stay short.
        if 2 * dict.len() > self.slots.len() {
            self.grow(dict);
        }
        idx
    }

    /// Doubles the table and re-inserts the block's entries so far.
    fn grow(&mut self, dict: &[PackedEntry]) {
        let live = self.stamp << 16;
        self.slots = vec![0; self.slots.len() * 2];
        self.shift -= 1;
        let mask = self.slots.len() - 1;
        for (idx, e) in dict.iter().enumerate() {
            let mut i = self.slot_of(e);
            while self.slots[i] != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = live | idx as u32;
        }
    }
}

// ---------------------------------------------------------------------------
// block encode
// ---------------------------------------------------------------------------

/// Encodes `records` (at most [`BLOCK_RECORDS`]) as one v3 block payload
/// into `out` (cleared first). Scratch state lives in `enc` so a long
/// streaming write reuses its allocations across blocks.
pub(crate) fn encode_block(records: &[RetiredInst], enc: &mut BlockEncoder, out: &mut Vec<u8>) {
    debug_assert!(!records.is_empty() && records.len() <= BLOCK_RECORDS);
    out.clear();
    enc.reset();

    // Pass 1, over the records: dictionary indices in first-appearance
    // order, presence bits, value streams and branch outcomes, none of
    // which depends on the final dictionary size. Bits gather in a local
    // word per 64 records.
    enc.indices.resize(records.len(), 0);
    let mut last = usize::MAX;
    let mut prev_mem = 0u64;
    for (chunk, indices) in records.chunks(64).zip(enc.indices.chunks_mut(64)) {
        let (mut dstv, mut mem, mut taken, mut n_br) = (0u64, 0u64, 0u64, 0);
        for (bit, (inst, index)) in chunk.iter().zip(indices).enumerate() {
            let entry = PackedEntry::of(inst);
            // Straight-line code makes the format's own prediction, the
            // previous index + 1, the common case: try it before hashing.
            let next = last.wrapping_add(1);
            last = if enc.dict.get(next) == Some(&entry) {
                next
            } else {
                enc.table.index_of(entry, &mut enc.dict)
            };
            *index = last as u32;
            if inst.dst_value != 0 {
                dstv |= 1 << bit;
                put_varint(&mut enc.values, inst.dst_value);
            }
            if inst.mem_addr != 0 {
                mem |= 1 << bit;
                put_delta(&mut enc.mems, prev_mem, inst.mem_addr);
                prev_mem = inst.mem_addr;
            }
            if let Some(b) = inst.branch {
                taken |= u64::from(b.taken) << n_br;
                n_br += 1;
            }
        }
        enc.dstv_bits.push_bits(dstv, chunk.len());
        enc.mem_bits.push_bits(mem, chunk.len());
        enc.taken_bits.push_bits(taken, n_br);
    }
    let n_dict = enc.dict.len() as u32;

    // Dictionary section.
    put_varint(out, u64::from(n_dict));
    let mut prev_ip = 0u64;
    for e in &enc.dict {
        out.extend_from_slice(&e.head.to_le_bytes());
        put_delta(out, prev_ip, e.ip);
        prev_ip = e.ip;
        if e.is_branch() {
            put_delta(out, e.ip, e.target);
        }
    }

    // Pass 2, over the indices: hit bits against the prediction, which
    // wraps at the final dictionary size, and varint indices on misses.
    let mut pred = 0u32;
    for indices in enc.indices.chunks(64) {
        let mut hits = 0u64;
        for (bit, &idx) in indices.iter().enumerate() {
            if idx == pred {
                hits |= 1 << bit;
            } else {
                put_varint(&mut enc.misses, u64::from(idx));
            }
            pred = if idx + 1 == n_dict { 0 } else { idx + 1 };
        }
        enc.pred_bits.push_bits(hits, indices.len());
    }

    enc.pred_bits.put(out);
    enc.dstv_bits.put(out);
    enc.mem_bits.put(out);
    out.extend_from_slice(&enc.misses);
    enc.taken_bits.put(out);
    out.extend_from_slice(&enc.values);
    out.extend_from_slice(&enc.mems);
    debug_assert!(out.len() <= MAX_BLOCK_PAYLOAD, "payload {} over cap", out.len());
}

/// Reusable scratch state for [`encode_block`].
#[derive(Default)]
pub(crate) struct BlockEncoder {
    table: DictTable,
    dict: Vec<PackedEntry>,
    indices: Vec<u32>,
    pred_bits: BitBuf,
    dstv_bits: BitBuf,
    mem_bits: BitBuf,
    taken_bits: BitBuf,
    misses: Vec<u8>,
    values: Vec<u8>,
    mems: Vec<u8>,
}

impl BlockEncoder {
    fn reset(&mut self) {
        self.table.next_block();
        self.dict.clear();
        self.indices.clear();
        for bits in [
            &mut self.pred_bits,
            &mut self.dstv_bits,
            &mut self.mem_bits,
            &mut self.taken_bits,
        ] {
            bits.clear();
        }
        self.misses.clear();
        self.values.clear();
        self.mems.clear();
    }
}

// ---------------------------------------------------------------------------
// block decode
// ---------------------------------------------------------------------------

/// Decodes one v3 block payload holding exactly `n_records` records,
/// appending them to `out`. Every malformed input path returns a
/// structured [`ReadTraceError`]; allocations are bounded by
/// `n_records` (already validated against [`BLOCK_RECORDS`]) and the
/// payload length (validated against [`MAX_BLOCK_PAYLOAD`]).
pub(crate) fn decode_block(
    payload: &[u8],
    n_records: usize,
    out: &mut Vec<RetiredInst>,
) -> Result<(), ReadTraceError> {
    let mut cur = Cur::new(payload);

    let n_dict = usize::try_from(cur.varint()?).unwrap_or(usize::MAX);
    if n_dict == 0 || n_dict > n_records {
        return Err(ReadTraceError::Corrupt("dictionary size"));
    }
    let mut dict = Vec::with_capacity(n_dict);
    let mut prev_ip = 0u64;
    for _ in 0..n_dict {
        let flags = cur.bytes(1)?[0];
        if flags >> 6 != 0 {
            return Err(ReadTraceError::Corrupt("dictionary flags"));
        }
        let class = flags & 0x7;
        let kind = flags >> 3 & 0x7;
        decode_class(class)?;
        if kind != 0 {
            decode_kind(kind)?;
        }
        let regs = cur.bytes(3)?;
        for &r in regs {
            decode_reg(r)?;
        }
        let ip = cur.delta(prev_ip)?;
        prev_ip = ip;
        let target = if kind != 0 { cur.delta(ip)? } else { 0 };
        dict.push(DictEntry {
            ip,
            target,
            class,
            kind,
            src1: regs[0],
            src2: regs[1],
            dst: regs[2],
        });
    }

    let bitmap_len = n_records.div_ceil(8);
    let pred_bits = cur.bytes(bitmap_len)?;
    let dstv_bits = cur.bytes(bitmap_len)?;
    let mem_bits = cur.bytes(bitmap_len)?;

    // Resolve dictionary indices (reading miss varints in stream order)
    // and count how many records draw from each value stream.
    let mut indices = Vec::with_capacity(n_records);
    let mut pred = 0u32;
    let mut n_br = 0usize;
    for i in 0..n_records {
        let idx = if bit(pred_bits, i) {
            pred
        } else {
            let v = cur.varint()?;
            if v >= n_dict as u64 {
                return Err(ReadTraceError::Corrupt("dictionary index"));
            }
            v as u32
        };
        n_br += usize::from(dict[idx as usize].kind != 0);
        pred = (idx + 1) % n_dict as u32;
        indices.push(idx);
    }

    let taken_bits = cur.bytes(n_br.div_ceil(8))?;

    // Value streams, in payload order: dst_values first, then mem deltas.
    let mut dst_values = Vec::with_capacity(n_records.min(1024));
    for i in 0..n_records {
        if bit(dstv_bits, i) {
            let v = cur.varint()?;
            if v == 0 {
                return Err(ReadTraceError::Corrupt("zero in dst_value stream"));
            }
            dst_values.push(v);
        } else {
            dst_values.push(0);
        }
    }
    let mut prev_mem = 0u64;
    let mut br_seen = 0usize;
    for (i, &idx) in indices.iter().enumerate() {
        let e = dict[idx as usize];
        let mem_addr = if bit(mem_bits, i) {
            prev_mem = cur.delta(prev_mem)?;
            prev_mem
        } else {
            0
        };
        let branch = if e.kind == 0 {
            None
        } else {
            let kind = decode_kind(e.kind)?;
            let taken = bit(taken_bits, br_seen);
            br_seen += 1;
            if !taken && kind != BranchKind::Conditional {
                return Err(ReadTraceError::Corrupt("unconditional not-taken"));
            }
            Some(BranchInfo { kind, taken, target: e.target })
        };
        out.push(RetiredInst {
            ip: e.ip,
            dst_value: dst_values[i],
            mem_addr,
            class: decode_class(e.class)?,
            src1: decode_reg(e.src1)?,
            src2: decode_reg(e.src2)?,
            dst: decode_reg(e.dst)?,
            branch,
        });
    }

    if !cur.is_done() {
        return Err(ReadTraceError::Corrupt("block payload size"));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// the streaming writer
// ---------------------------------------------------------------------------

/// Streams retired instructions into a v3 `BPTR` file without ever
/// materializing the trace: records are buffered one block at a time,
/// encoded, checksummed, and written out.
///
/// Pass the total record count to [`TraceWriter::new`] when it is known
/// (it is embedded in the header and verified on decode); pass `None`
/// for open-ended streams — the header then carries the
/// "count unknown" sentinel and readers trust the block structure,
/// which every block's own FNV-1a trailer guards.
///
/// # Examples
///
/// ```
/// use bp_trace::{RetiredInst, Trace, TraceMeta, TraceWriter};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let meta = TraceMeta::new("streamed", 0);
/// let mut w = TraceWriter::new(Vec::new(), &meta, None)?;
/// for i in 0..100_000u64 {
///     w.push(RetiredInst::cond_branch(0x40 + (i % 32) * 4, i % 3 == 0, 0x100, Some(1), None))?;
/// }
/// let bytes = w.finish()?;
/// assert!(bytes.len() < 100_000); // under a byte per instruction
/// let back = Trace::read_from(bytes.as_slice())?;
/// assert_eq!(back.len(), 100_000);
/// # Ok(())
/// # }
/// ```
pub struct TraceWriter<W: Write> {
    inner: W,
    block: Vec<RetiredInst>,
    /// Encoded payloads: the second holds the later of two blocks written
    /// together.
    payloads: [Vec<u8>; 2],
    enc: BlockEncoder,
    written: u64,
    declared: Option<u64>,
}

impl<W: Write> TraceWriter<W> {
    /// Writes the v3 header for `meta` and prepares for streaming.
    /// `count` is the total number of records that will be pushed, if
    /// known up-front.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors and rejects over-long workload names
    /// exactly like [`Trace::write_to`](crate::Trace::write_to).
    pub fn new(mut writer: W, meta: &TraceMeta, count: Option<u64>) -> Result<Self, WriteTraceError> {
        write_header(&mut writer, meta, count.unwrap_or(COUNT_UNKNOWN))?;
        Ok(TraceWriter {
            inner: writer,
            block: Vec::with_capacity(BLOCK_RECORDS.min(4096)),
            payloads: [Vec::new(), Vec::new()],
            enc: BlockEncoder::default(),
            written: 0,
            declared: count,
        })
    }

    /// Appends one record, flushing a full block to the writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn push(&mut self, inst: RetiredInst) -> Result<(), WriteTraceError> {
        self.block.push(inst);
        self.written += 1;
        if self.block.len() == BLOCK_RECORDS {
            self.flush_block()?;
        }
        Ok(())
    }

    /// Appends a run of records. Whole blocks that line up with the block
    /// boundary encode straight from `insts`, without passing through the
    /// writer's block buffer; the output is byte-identical to pushing the
    /// records one at a time.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn push_slice(&mut self, mut insts: &[RetiredInst]) -> Result<(), WriteTraceError> {
        while !insts.is_empty() {
            let take = if self.block.is_empty() && insts.len() >= BLOCK_RECORDS {
                // Two at a time when there are two, so their checksums
                // hash together.
                let take = if insts.len() >= 2 * BLOCK_RECORDS { 2 * BLOCK_RECORDS } else { BLOCK_RECORDS };
                let (blocks, rest) = insts.split_at(take);
                write_blocks(&mut self.inner, &mut self.enc, &mut self.payloads, blocks)?;
                insts = rest;
                take
            } else {
                let take = (BLOCK_RECORDS - self.block.len()).min(insts.len());
                let (head, rest) = insts.split_at(take);
                self.block.extend_from_slice(head);
                insts = rest;
                if self.block.len() == BLOCK_RECORDS {
                    self.flush_block()?;
                }
                take
            };
            self.written += take as u64;
        }
        Ok(())
    }

    /// Records pushed so far.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.written
    }

    /// True when no record has been pushed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.written == 0
    }

    fn flush_block(&mut self) -> Result<(), WriteTraceError> {
        if self.block.is_empty() {
            return Ok(());
        }
        write_blocks(&mut self.inner, &mut self.enc, &mut self.payloads, &self.block)?;
        self.block.clear();
        Ok(())
    }

    /// Flushes the final partial block, writes the end marker, flushes
    /// the writer, and returns it.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    ///
    /// # Panics
    ///
    /// Panics if a total count was declared to [`TraceWriter::new`] and
    /// a different number of records was pushed — the header would lie.
    pub fn finish(mut self) -> Result<W, WriteTraceError> {
        if let Some(declared) = self.declared {
            assert_eq!(
                declared, self.written,
                "TraceWriter: header declared {declared} records but {} were pushed",
                self.written
            );
        }
        self.flush_block()?;
        let end = frame(0, &[]);
        write_frame(&mut self.inner, &end, &[], checksum(&end, &[]))?;
        self.inner.flush()?;
        Ok(self.inner)
    }
}

/// Encodes `records`, one or two blocks' worth, through the scratch
/// `enc` and `payloads`, and writes their frames. The checksums of two
/// blocks hash together ([`fnv1a_pair`]).
fn write_blocks<W: Write>(
    w: &mut W,
    enc: &mut BlockEncoder,
    [pa, pb]: &mut [Vec<u8>; 2],
    records: &[RetiredInst],
) -> Result<(), WriteTraceError> {
    let (a, b) = records.split_at(records.len().min(BLOCK_RECORDS));
    encode_block(a, enc, pa);
    let fa = frame(a.len(), pa);
    if b.is_empty() {
        return write_frame(w, &fa, pa, checksum(&fa, pa));
    }
    encode_block(b, enc, pb);
    let fb = frame(b.len(), pb);
    let (mut ha, mut hb) = (checksum(&fa, &[]), checksum(&fb, &[]));
    fnv1a_pair(&mut ha, pa, &mut hb, pb);
    write_frame(w, &fa, pa, ha)?;
    write_frame(w, &fb, pb, hb)
}

/// The FNV-1a checksum of a frame and its payload.
fn checksum(frame: &[u8; 8], payload: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    fnv1a(&mut hash, frame);
    fnv1a(&mut hash, payload);
    hash
}

/// The `[n_records][payload_len]` head of a block frame; `n_records == 0`
/// with an empty payload is the end marker.
fn frame(n_records: usize, payload: &[u8]) -> [u8; 8] {
    let mut frame = [0u8; 8];
    frame[0..4].copy_from_slice(&(n_records as u32).to_le_bytes());
    frame[4..8].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    frame
}

/// Writes one `[frame][payload][fnv]` block, `hash` covering frame and
/// payload.
fn write_frame<W: Write>(w: &mut W, frame: &[u8; 8], payload: &[u8], hash: u64) -> Result<(), WriteTraceError> {
    w.write_all(frame)?;
    w.write_all(payload)?;
    w.write_all(&hash.to_le_bytes())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{InstClass, Reg};

    fn roundtrip_block(records: &[RetiredInst]) -> Vec<RetiredInst> {
        let mut payload = Vec::new();
        encode_block(records, &mut BlockEncoder::default(), &mut payload);
        let mut out = Vec::new();
        decode_block(&payload, records.len(), &mut out).expect("decode");
        out
    }

    #[test]
    fn loop_block_costs_under_half_a_byte_per_record() {
        // A tight 8-instruction loop: after the first iteration every
        // index is predicted, so the cost is the four bitstreams.
        let mut records = Vec::new();
        for i in 0..BLOCK_RECORDS as u64 {
            let slot = i % 8;
            if slot == 7 {
                records.push(RetiredInst::cond_branch(0x40 + slot * 4, i % 9 != 0, 0x40, Some(1), None));
            } else {
                records.push(RetiredInst::op(
                    0x40 + slot * 4,
                    InstClass::Alu,
                    Some(Reg::new(1)),
                    None,
                    None,
                    0,
                ));
            }
        }
        let mut payload = Vec::new();
        encode_block(&records, &mut BlockEncoder::default(), &mut payload);
        assert!(
            payload.len() * 2 < records.len(),
            "{} bytes for {} records",
            payload.len(),
            records.len()
        );
        assert_eq!(roundtrip_block(&records), records);
    }

    #[test]
    fn hostile_field_values_roundtrip_exactly() {
        // Every corner the public `RetiredInst` fields allow: max deltas,
        // branch-classed non-branches, values on dst-less records.
        let records = vec![
            RetiredInst {
                ip: u64::MAX,
                dst_value: u64::MAX,
                mem_addr: u64::MAX,
                class: InstClass::Store,
                src1: Some(Reg::new(31)),
                src2: None,
                dst: None,
                branch: None,
            },
            RetiredInst {
                ip: 0,
                dst_value: 1,
                mem_addr: 1,
                class: InstClass::Branch,
                src1: None,
                src2: Some(Reg::new(0)),
                dst: Some(Reg::new(7)),
                branch: None,
            },
            RetiredInst {
                ip: 0x7fff_ffff_ffff_ffff,
                dst_value: 0,
                mem_addr: 0,
                class: InstClass::Nop,
                src1: None,
                src2: None,
                dst: None,
                branch: Some(BranchInfo { kind: BranchKind::Return, taken: true, target: 0 }),
            },
        ];
        assert_eq!(roundtrip_block(&records), records);
    }

    #[test]
    fn varint_rejects_overlong_encodings() {
        let mut cur = Cur::new(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f]);
        assert!(matches!(cur.varint(), Err(ReadTraceError::Corrupt("varint"))));
        let mut cur = Cur::new(&[0x80; 11]);
        assert!(matches!(cur.varint(), Err(ReadTraceError::Corrupt("varint"))));
        let mut cur = Cur::new(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01]);
        assert_eq!(cur.varint().expect("max u64"), u64::MAX);
    }

    #[test]
    fn varint_roundtrips_at_every_length_boundary() {
        let mut values = vec![0, u64::MAX, u64::MAX - 1];
        for bits in (7..64).step_by(7) {
            values.extend([(1 << bits) - 1, 1 << bits, (1 << bits) + 1]);
        }
        for v in values {
            let mut out = vec![0xaa];
            put_varint(&mut out, v);
            let len = (64 - v.leading_zeros() as usize).div_ceil(7).max(1);
            assert_eq!(out.len(), 1 + len, "{v:#x}");
            let mut cur = Cur::new(&out[1..]);
            assert_eq!(cur.varint().expect("decodes"), v);
            assert!(cur.is_done());
        }
    }

    #[test]
    fn bitbuf_packs_unaligned_runs_lsb_first() {
        let mut bits = BitBuf::default();
        let mut want = Vec::new();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for n in [3usize, 64, 0, 61, 7, 64, 1] {
            x = x.rotate_left(17).wrapping_mul(0x2545_f491_4f6c_dd1d);
            let word = if n == 64 { x } else { x & ((1 << n) - 1) };
            bits.push_bits(word, n);
            want.extend((0..n).map(|b| word >> b & 1 != 0));
        }
        let mut out = Vec::new();
        bits.put(&mut out);
        assert_eq!(out.len(), want.len().div_ceil(8));
        for (i, &b) in want.iter().enumerate() {
            assert_eq!(bit(&out, i), b, "bit {i}");
        }
    }

    #[test]
    fn zigzag_roundtrips_extremes() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 42, -4096] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn truncated_payload_is_structured_error() {
        let mut records = Vec::new();
        for i in 0..100u64 {
            records.push(RetiredInst::cond_branch(i * 4, i % 2 == 0, 0x40, None, None));
        }
        let mut payload = Vec::new();
        encode_block(&records, &mut BlockEncoder::default(), &mut payload);
        for cut in 0..payload.len() {
            let mut out = Vec::new();
            let err = decode_block(&payload[..cut], records.len(), &mut out)
                .expect_err("truncated payload must fail");
            assert!(matches!(err, ReadTraceError::Corrupt(_)), "cut {cut}: {err:?}");
        }
    }

    #[test]
    fn oversized_payload_is_structured_error() {
        let records = vec![RetiredInst::cond_branch(4, true, 8, None, None)];
        let mut payload = Vec::new();
        encode_block(&records, &mut BlockEncoder::default(), &mut payload);
        payload.push(0);
        let err = decode_block(&payload, 1, &mut Vec::new()).expect_err("extra byte");
        assert!(matches!(err, ReadTraceError::Corrupt("block payload size")));
    }
}
