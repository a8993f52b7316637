//! Streaming trace consumption: the [`TraceReader`] trait and the
//! `BPTR` block decoder.
//!
//! Replaying a paper-scale trace (§V-B works with multi-billion
//! instruction streams) must not require materializing it: everything
//! downstream — `SweepReplay::prepare`, `sweep_measure_stream`, profile
//! collection — consumes traces chunk-by-chunk through [`TraceReader`].
//! The in-memory [`Trace`] is just one implementation (a single-chunk
//! reader over its slice); [`BptrReader`] decodes v3 files with peak
//! memory bounded by one block, independent of trace length.
//!
//! Chunk boundaries carry no meaning: a reader may split the stream
//! anywhere, and consumers must produce identical results for any
//! chunking of the same record sequence.

use std::io::{self, Read};
use std::sync::Arc;

use crate::codec_v3::{decode_block, BLOCK_RECORDS, COUNT_UNKNOWN, MAX_BLOCK_PAYLOAD};
use crate::record::RetiredInst;
use crate::serialize::{fnv1a, ReadTraceError, FNV_OFFSET, MAGIC, VERSION_V3};
use crate::trace::{Trace, TraceMeta};

/// A source of retired-instruction records, delivered in arbitrary-size
/// chunks until exhausted.
///
/// The contract is iterator-like: [`TraceReader::next_chunk`] yields
/// `Ok(Some(records))` zero or more times, then `Ok(None)` exactly once
/// at a *successfully verified* end of stream. Integrity failures
/// (checksums, framing, trailing bytes) surface as errors no later than
/// the final `next_chunk` call, so a consumer that drains the reader has
/// validated the whole stream.
pub trait TraceReader {
    /// Workload metadata for the trace being read.
    fn meta(&self) -> &TraceMeta;

    /// Total record count, when the source declares one up-front. This
    /// is a *hint* from a possibly-untrusted header: use it to size
    /// estimates, never to pre-allocate unbounded memory.
    fn len_hint(&self) -> Option<u64>;

    /// Returns the next chunk of records, or `None` at a verified end
    /// of stream.
    ///
    /// # Errors
    ///
    /// Returns [`ReadTraceError`] on I/O failure or any corruption
    /// detected in the underlying stream.
    fn next_chunk(&mut self) -> Result<Option<&[RetiredInst]>, ReadTraceError>;
}

impl<T: TraceReader + ?Sized> TraceReader for &mut T {
    fn meta(&self) -> &TraceMeta {
        (**self).meta()
    }

    fn len_hint(&self) -> Option<u64> {
        (**self).len_hint()
    }

    fn next_chunk(&mut self) -> Result<Option<&[RetiredInst]>, ReadTraceError> {
        (**self).next_chunk()
    }
}

/// A [`TraceReader`] over a borrowed in-memory trace: yields the whole
/// record slice as one chunk. Obtained from [`Trace::reader`].
pub struct SliceReader<'a> {
    meta: &'a TraceMeta,
    insts: &'a [RetiredInst],
    consumed: bool,
}

impl TraceReader for SliceReader<'_> {
    fn meta(&self) -> &TraceMeta {
        self.meta
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.insts.len() as u64)
    }

    fn next_chunk(&mut self) -> Result<Option<&[RetiredInst]>, ReadTraceError> {
        if self.consumed {
            return Ok(None);
        }
        self.consumed = true;
        Ok(Some(self.insts))
    }
}

/// A [`TraceReader`] that owns a shared in-memory trace (as handed out
/// by the workload trace store), yielding its records as one chunk.
pub struct SharedReader {
    trace: Arc<Trace>,
    consumed: bool,
}

impl SharedReader {
    /// Wraps a shared trace for streaming consumption.
    #[must_use]
    pub fn new(trace: Arc<Trace>) -> Self {
        SharedReader { trace, consumed: false }
    }
}

impl TraceReader for SharedReader {
    fn meta(&self) -> &TraceMeta {
        self.trace.meta()
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.trace.len() as u64)
    }

    fn next_chunk(&mut self) -> Result<Option<&[RetiredInst]>, ReadTraceError> {
        if self.consumed {
            return Ok(None);
        }
        self.consumed = true;
        Ok(Some(self.trace.insts()))
    }
}

impl Trace {
    /// A streaming view of this trace: one chunk covering every record.
    #[must_use]
    pub fn reader(&self) -> SliceReader<'_> {
        SliceReader { meta: self.meta(), insts: self.insts(), consumed: false }
    }
}

/// Streaming decoder for `BPTR` v3 files.
///
/// The header is parsed in [`BptrReader::new`]; records then stream out
/// one codec block at a time, so peak memory is independent of trace
/// length. Integrity is verified incrementally against each block's
/// FNV-1a trailer, and the stream must end exactly where the format says
/// it does: leftover bytes are `Corrupt("trailing bytes")`, a missing
/// end is an I/O error. Any other version is
/// [`ReadTraceError::UnsupportedVersion`].
///
/// Decode is hostile-input hardened: no header or frame field can cause
/// an allocation beyond one block's caps ([`BLOCK_RECORDS`],
/// [`MAX_BLOCK_PAYLOAD`]), and every malformed byte is a structured
/// [`ReadTraceError`], never a panic.
pub struct BptrReader<R> {
    inner: R,
    meta: TraceMeta,
    /// Header-declared record total (`None`: "count unknown").
    declared: Option<u64>,
    produced: u64,
    chunk: Vec<RetiredInst>,
    payload: Vec<u8>,
    done: bool,
}

impl<R: Read> BptrReader<R> {
    /// Parses the `BPTR` header and prepares for block-wise decode.
    ///
    /// # Errors
    ///
    /// Returns [`ReadTraceError`] on I/O failure, bad magic, an
    /// unsupported version, or malformed metadata.
    pub fn new(mut inner: R) -> Result<Self, ReadTraceError> {
        let mut magic = [0u8; 4];
        inner.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(ReadTraceError::BadMagic);
        }
        let mut b2 = [0u8; 2];
        inner.read_exact(&mut b2)?;
        let version = u16::from_le_bytes(b2);
        if version != VERSION_V3 {
            return Err(ReadTraceError::UnsupportedVersion(version));
        }
        inner.read_exact(&mut b2)?;
        let name_len = usize::from(u16::from_le_bytes(b2));
        let mut name = vec![0u8; name_len];
        inner.read_exact(&mut name)?;
        let name = String::from_utf8(name).map_err(|_| ReadTraceError::Corrupt("name"))?;
        let mut b4 = [0u8; 4];
        inner.read_exact(&mut b4)?;
        let input = u32::from_le_bytes(b4);
        let mut b8 = [0u8; 8];
        inner.read_exact(&mut b8)?;
        let count = u64::from_le_bytes(b8);
        Ok(BptrReader {
            inner,
            meta: TraceMeta { name, input },
            declared: (count != COUNT_UNKNOWN).then_some(count),
            produced: 0,
            chunk: Vec::new(),
            payload: Vec::new(),
            done: false,
        })
    }

    /// Records decoded (and integrity-verified) so far.
    #[must_use]
    pub fn records_read(&self) -> u64 {
        self.produced
    }
}

impl<R: Read> TraceReader for BptrReader<R> {
    fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    fn len_hint(&self) -> Option<u64> {
        self.declared
    }

    fn next_chunk(&mut self) -> Result<Option<&[RetiredInst]>, ReadTraceError> {
        if self.done {
            return Ok(None);
        }
        let mut frame = [0u8; 8];
        self.inner.read_exact(&mut frame)?;
        let n_records = u32::from_le_bytes(frame[0..4].try_into().expect("4 bytes")) as usize;
        let payload_len = u32::from_le_bytes(frame[4..8].try_into().expect("4 bytes")) as usize;

        if n_records == 0 {
            // End marker: zero frame, still checksummed.
            if payload_len != 0 {
                return Err(ReadTraceError::Corrupt("block header"));
            }
            verify_block_trailer(&mut self.inner, &frame, &[])?;
            if self.declared.is_some_and(|d| d != self.produced) {
                return Err(ReadTraceError::Corrupt("record count mismatch"));
            }
            expect_eof(&mut self.inner)?;
            self.done = true;
            return Ok(None);
        }
        if n_records > BLOCK_RECORDS {
            return Err(ReadTraceError::Corrupt("block record count"));
        }
        if payload_len == 0 || payload_len > MAX_BLOCK_PAYLOAD {
            return Err(ReadTraceError::Corrupt("block payload length"));
        }
        if self.declared.is_some_and(|d| d.wrapping_sub(self.produced) < n_records as u64) {
            return Err(ReadTraceError::Corrupt("record count mismatch"));
        }
        self.payload.clear();
        self.payload.resize(payload_len, 0);
        self.inner.read_exact(&mut self.payload)?;
        verify_block_trailer(&mut self.inner, &frame, &self.payload)?;
        self.chunk.clear();
        decode_block(&self.payload, n_records, &mut self.chunk)?;
        self.produced += n_records as u64;
        Ok(Some(&self.chunk))
    }
}

/// Reads a block's 8-byte FNV-1a trailer and checks it against the
/// digest of `frame ++ payload`.
fn verify_block_trailer<R: Read>(
    r: &mut R,
    frame: &[u8; 8],
    payload: &[u8],
) -> Result<(), ReadTraceError> {
    let mut t = [0u8; 8];
    r.read_exact(&mut t)?;
    let stored = u64::from_le_bytes(t);
    let mut computed = FNV_OFFSET;
    fnv1a(&mut computed, frame);
    fnv1a(&mut computed, payload);
    if stored != computed {
        return Err(ReadTraceError::ChecksumMismatch { stored, computed });
    }
    Ok(())
}

/// Requires the stream to be exhausted: any further byte is corruption.
fn expect_eof<R: Read>(r: &mut R) -> Result<(), ReadTraceError> {
    let mut b = [0u8; 1];
    loop {
        match r.read(&mut b) {
            Ok(0) => return Ok(()),
            Ok(_) => return Err(ReadTraceError::Corrupt("trailing bytes")),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RetiredInst;

    fn branchy(len: u64) -> Trace {
        let mut t = Trace::new(TraceMeta::new("reader", 1));
        for i in 0..len {
            t.push(RetiredInst::cond_branch(0x40 + (i % 97) * 4, i % 5 != 0, 0x400, Some(2), None));
        }
        t
    }

    #[test]
    fn slice_reader_yields_everything_once() {
        let t = branchy(100);
        let mut r = t.reader();
        assert_eq!(r.len_hint(), Some(100));
        assert_eq!(r.next_chunk().unwrap().unwrap(), t.insts());
        assert!(r.next_chunk().unwrap().is_none());
        assert!(r.next_chunk().unwrap().is_none());
    }

    #[test]
    fn shared_reader_yields_everything_once() {
        let t = Arc::new(branchy(64));
        let mut r = SharedReader::new(Arc::clone(&t));
        assert_eq!(r.meta(), t.meta());
        assert_eq!(r.next_chunk().unwrap().unwrap(), t.insts());
        assert!(r.next_chunk().unwrap().is_none());
    }

    #[test]
    fn bptr_reader_streams_v3_blocks() {
        let t = branchy(150_000);
        let mut bytes = Vec::new();
        t.write_to(&mut bytes).unwrap();
        let mut r = BptrReader::new(bytes.as_slice()).unwrap();
        assert_eq!(r.meta(), t.meta());
        assert_eq!(r.len_hint(), Some(150_000));
        let mut all = Vec::new();
        while let Some(chunk) = r.next_chunk().unwrap() {
            assert!(chunk.len() <= BLOCK_RECORDS);
            all.extend_from_slice(chunk);
        }
        assert_eq!(r.records_read(), 150_000);
        assert_eq!(all, t.insts());
    }

    #[test]
    fn v3_count_mismatch_is_detected() {
        let t = branchy(500);
        let mut bytes = Vec::new();
        t.write_to(&mut bytes).unwrap();
        // Patch the header count (not covered by any block checksum) to
        // lie: the block/end-marker accounting must catch it.
        let count_off = 4 + 2 + 2 + t.meta().name.len() + 4;
        for lie in [499u64, 501, 1] {
            let mut b = bytes.clone();
            b[count_off..count_off + 8].copy_from_slice(&lie.to_le_bytes());
            let err = Trace::read_from(b.as_slice()).unwrap_err();
            assert!(
                matches!(err, ReadTraceError::Corrupt("record count mismatch")),
                "count={lie}: {err:?}"
            );
        }
    }

    #[test]
    fn v3_unknown_count_streams_fine() {
        use crate::codec_v3::TraceWriter;
        let t = branchy(70_000);
        let mut w = TraceWriter::new(Vec::new(), t.meta(), None).unwrap();
        for i in t.iter() {
            w.push(*i).unwrap();
        }
        let bytes = w.finish().unwrap();
        let mut r = BptrReader::new(bytes.as_slice()).unwrap();
        assert_eq!(r.len_hint(), None);
        let back = Trace::read_from(bytes.as_slice()).unwrap();
        assert_eq!(back.insts(), t.insts());
        while r.next_chunk().unwrap().is_some() {}
        assert_eq!(r.records_read(), 70_000);
    }

    #[test]
    fn oversized_block_frame_is_rejected_without_allocation() {
        let t = branchy(3);
        let mut bytes = Vec::new();
        t.write_to(&mut bytes).unwrap();
        let frame_off = 4 + 2 + 2 + t.meta().name.len() + 4 + 8;
        // Hostile n_records.
        let mut b = bytes.clone();
        b[frame_off..frame_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = Trace::read_from(b.as_slice()).unwrap_err();
        assert!(matches!(err, ReadTraceError::Corrupt("block record count")), "{err:?}");
        // Hostile payload_len.
        let mut b = bytes;
        b[frame_off + 4..frame_off + 8].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = Trace::read_from(b.as_slice()).unwrap_err();
        assert!(matches!(err, ReadTraceError::Corrupt("block payload length")), "{err:?}");
    }

    #[test]
    fn non_utf8_name_is_structured() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&3u16.to_le_bytes());
        bytes.extend_from_slice(&2u16.to_le_bytes());
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        let Err(err) = BptrReader::new(bytes.as_slice()) else {
            panic!("non-UTF-8 name must be rejected");
        };
        assert!(matches!(err, ReadTraceError::Corrupt("name")), "{err:?}");
    }
}
