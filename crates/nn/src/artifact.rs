//! Persistent trace artifacts: a versioned, length-prefixed binary
//! serialization of [`NetworkTrace`]s keyed by [`TraceKey`].
//!
//! Trace compilation dominates harness cost, and an in-memory cache
//! dies with the process — every fleet run and multi-seed sweep pays
//! the full cold start again. This module makes compiled traces durable:
//! [`encode`] turns a `(key, trace)` pair into a self-validating byte
//! stream, [`decode`] rebuilds it with **every read bounds-checked** and
//! every failure a typed [`ArtifactError`] (no panic is reachable from
//! malformed bytes), and [`save`]/[`load`] move artifacts through a
//! directory with atomic write-rename so concurrent processes sharing
//! the directory never observe a half-written file.
//!
//! # Wire format (version 3, little-endian)
//!
//! ```text
//! magic    [u8; 8]  b"PACCTRC1"
//! version  u32      FORMAT_VERSION (readers reject every other version)
//! checksum u64      word hash (below) of every byte after this field
//! body:
//!   key    str network, u64 seed, u64 scale_ppm
//!   trace  str network, str input_desc, u32 n_layers, layers…
//! layer:
//!   str name, u8 compute, u64 n_in/n_out/in_ch/out_ch,
//!   opt map-table, u32 n_mapping_ops + ops, u8 aggregation,
//!   opt u64 pool_group, u8 fusable
//! map-table:
//!   u32 n_weights, u64 offsets[n_weights+1], u32 inputs[len],
//!   u32 outputs[len]            (len = offsets[n_weights])
//! str:     u32 byte length + UTF-8 bytes
//! opt T:   u8 0|1 + T
//! ```
//!
//! A map table's three arrays are written as whole slices and read back
//! after one bounds check per array; they are most of an artifact's
//! bytes. The body is laid out exactly as in version 2: only the
//! checksum function changed.
//!
//! The trace section is the canonical encoding of a [`NetworkTrace`]:
//! [`NetworkTrace::fingerprint`] is the word hash of exactly those bytes,
//! streamed through the same encoder without building a buffer. Every
//! field on the wire, names included, is therefore covered by the
//! fingerprint, and no second field list exists to drift from it.
//!
//! # The word hash
//!
//! One in-tree 64-bit hash is both the checksum and the fingerprint. It
//! reads the stream as little-endian 8-byte words and folds word `w`
//! into a state `h` as `h = (h ^ w).wrapping_mul(K).rotate_left(R)`
//! with `K` odd. Word `i` goes to the `i % 4`th of four states, so their
//! multiplies overlap in the pipeline. The zero-padded tail word
//! continues the states; then the four states, the byte length and a
//! 64-bit avalanche (the MurmurHash3 finalizer) fold into the result.
//! Any split of the stream across writes gives the same value, so the
//! fingerprint needs no buffer.
//!
//! Every single-bit flip is caught by construction, not with high
//! probability. For a fixed word a step is a bijection of the state
//! (xor, multiplication by an odd constant modulo 2^64 and rotation are
//! all invertible), for a fixed state it is a bijection of the word, and
//! the avalanche is a bijection too. Two streams of equal length that
//! differ in one aligned word therefore leave one state apart, and it
//! stays apart through every later step, so the results differ. A bit
//! flip changes one word and not the length. Truncated or padded
//! streams change the folded length, and the parser's bounds checks
//! reject truncations on their own as well.
//!
//! Validation on load is layered: the checksum is the one integrity
//! hash, the parser bounds-checks every length prefix before allocating,
//! map tables rebuild through the validating [`MapTable::try_from_soa`],
//! and [`load`] runs the static verifier on the decoded trace. Version 1
//! files (which also stored the fingerprint) and version 2 files (whose
//! checksum was a byte-at-a-time FNV-1a) are rejected as
//! [`ArtifactError::UnsupportedVersion`]; the trace cache recompiles them
//! and rewrites them under the same file name.

use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use pointacc_geom::{MapTable, MapTableError};

use crate::trace::{Aggregation, ComputeKind, LayerTrace, MappingOp, NetworkTrace, TraceKey};

/// Leading magic of every trace artifact.
pub const MAGIC: [u8; 8] = *b"PACCTRC1";

/// Format version written by [`encode`]; [`decode`] rejects all others.
pub const FORMAT_VERSION: u32 = 3;

/// Bytes before the body: magic, version and checksum.
const HEADER_LEN: usize = MAGIC.len() + 4 + 8;

/// Conventional file extension of saved artifacts.
pub const EXTENSION: &str = "trace";

/// Why a byte stream or artifact file was rejected. Every variant is a
/// *rejection*, never a panic: corrupt, truncated, or hostile bytes
/// must not take the process down.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArtifactError {
    /// The stream ended before a read completed.
    Truncated {
        /// Byte offset of the read.
        offset: usize,
        /// Bytes the read needed.
        needed: usize,
        /// Bytes that were left.
        remaining: usize,
    },
    /// The stream does not start with [`MAGIC`].
    BadMagic,
    /// The stream's format version is not [`FORMAT_VERSION`].
    UnsupportedVersion(u32),
    /// The stored checksum does not match the stream contents (bit
    /// flip, truncation past the header, or trailing garbage).
    ChecksumMismatch {
        /// Checksum stored in the header.
        stored: u64,
        /// Checksum computed over the received body.
        computed: u64,
    },
    /// A field decoded to a structurally invalid value.
    Corrupt {
        /// Byte offset of the offending field.
        offset: usize,
        /// What was wrong.
        what: String,
    },
    /// The body parsed completely but bytes were left over.
    TrailingBytes {
        /// Bytes consumed by the parse.
        consumed: usize,
        /// Total body length.
        len: usize,
    },
    /// An artifact file named key `found`, but `requested` was asked
    /// for (file-name collision or a renamed file).
    KeyMismatch {
        /// The key the caller asked [`load`] for.
        requested: TraceKey,
        /// The key stored in the file.
        found: TraceKey,
    },
    /// The artifact decoded cleanly — magic, version and checksum all
    /// valid — but its trace failed static verification
    /// ([`verify_trace`](crate::verify::verify_trace)): a corrupt file
    /// whose integrity metadata was recomputed, or a buggy producer.
    /// Refused at load, never executed.
    Rejected(crate::verify::VerifyError),
    /// Filesystem failure while saving or loading (message of the
    /// underlying `std::io::Error`).
    Io(String),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Truncated { offset, needed, remaining } => write!(
                f,
                "artifact truncated at byte {offset}: needed {needed} bytes, {remaining} left"
            ),
            ArtifactError::BadMagic => write!(f, "not a trace artifact (bad magic)"),
            ArtifactError::UnsupportedVersion(v) => {
                write!(f, "unsupported artifact version {v} (this reader speaks {FORMAT_VERSION})")
            }
            ArtifactError::ChecksumMismatch { stored, computed } => write!(
                f,
                "artifact checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
            ),
            ArtifactError::Corrupt { offset, what } => {
                write!(f, "corrupt artifact at byte {offset}: {what}")
            }
            ArtifactError::TrailingBytes { consumed, len } => {
                write!(f, "artifact has {} trailing bytes after the trace", len - consumed)
            }
            ArtifactError::KeyMismatch { requested, found } => {
                write!(f, "artifact key mismatch: requested {requested:?}, file holds {found:?}")
            }
            ArtifactError::Rejected(e) => {
                write!(f, "artifact failed static trace verification: {e}")
            }
            ArtifactError::Io(msg) => write!(f, "artifact I/O failure: {msg}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<std::io::Error> for ArtifactError {
    fn from(e: std::io::Error) -> Self {
        ArtifactError::Io(e.to_string())
    }
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Where the encoder writes: a byte buffer for [`encode`], or
/// [`WordHash`] for [`NetworkTrace::fingerprint`], which hashes the same
/// bytes without materializing them.
trait Sink {
    fn put(&mut self, bytes: &[u8]);

    fn u8(&mut self, v: u8) {
        self.put(&[v]);
    }

    fn u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }

    fn str_(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.put(s.as_bytes());
    }

    /// Writes every item of `items` as its `N` little-endian bytes,
    /// staged through a stack buffer so the sink sees one `put` per
    /// kibibyte instead of one per item.
    fn slice<T: Copy, const N: usize>(&mut self, items: &[T], le_bytes: impl Fn(T) -> [u8; N]) {
        let mut buf = [0u8; 1024];
        for chunk in items.chunks(buf.len() / N) {
            let bytes = &mut buf[..chunk.len() * N];
            for (dst, &item) in bytes.chunks_exact_mut(N).zip(chunk) {
                dst.copy_from_slice(&le_bytes(item));
            }
            self.put(bytes);
        }
    }
}

/// Counts the bytes the encoder writes, so [`encode`] allocates its
/// buffer once.
struct Len(usize);

impl Sink for Len {
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }

    fn slice<T: Copy, const N: usize>(&mut self, items: &[T], _: impl Fn(T) -> [u8; N]) {
        self.0 += items.len() * N;
    }
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// The state multiplier of [`WordHash`]; odd, so multiplying by it is
/// invertible modulo 2^64.
const WORD_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Independent states of [`WordHash`]: word `i` of the stream goes to
/// lane `i % LANES`, so the lanes' multiplies overlap in the pipeline.
const LANES: usize = 4;

/// Bytes of one round, a word for every lane.
const BLOCK: usize = 8 * LANES;

/// Incremental word-at-a-time hash: the artifact checksum and, fed by
/// the encoder, the trace fingerprint (see the module docs).
struct WordHash {
    lanes: [u64; LANES],
    /// Bytes hashed so far.
    len: u64,
    /// The first `pending` bytes of a round not yet complete.
    tail: [u8; BLOCK],
    pending: usize,
}

impl WordHash {
    fn new() -> Self {
        let seed = 0x243F_6A88_85A3_08D3u64;
        let lanes = [seed, seed.rotate_left(16), seed.rotate_left(32), seed.rotate_left(48)];
        WordHash { lanes, len: 0, tail: [0; BLOCK], pending: 0 }
    }

    /// Folds one word into a state. For a fixed `word` this is a
    /// bijection of `state`, and for a fixed `state` one of `word`.
    fn step(state: u64, word: u64) -> u64 {
        (state ^ word).wrapping_mul(WORD_MUL).rotate_left(31)
    }

    /// Folds `words` (at most [`BLOCK`] bytes, whole words) into the
    /// lanes in order.
    fn round(lanes: &mut [u64; LANES], words: &[u8]) {
        for (lane, word) in lanes.iter_mut().zip(words.chunks_exact(8)) {
            *lane = Self::step(*lane, u64::from_le_bytes(le_array(word)));
        }
    }

    fn finish(&self) -> u64 {
        // The pending bytes, the last word zero-padded, continue the
        // lanes; then the lanes, the length and an avalanche fold into
        // one state, each step a bijection in what it folds in.
        let mut lanes = self.lanes;
        let mut tail = [0u8; BLOCK];
        tail[..self.pending].copy_from_slice(&self.tail[..self.pending]);
        Self::round(&mut lanes, &tail[..self.pending.div_ceil(8) * 8]);
        let mut h = lanes[1..].iter().fold(lanes[0], |h, &lane| Self::step(h, lane));
        h = Self::step(h, self.len);
        // MurmurHash3's 64-bit finalizer: xor-shifts and odd multiplies,
        // each invertible.
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h ^ (h >> 33)
    }

    fn of(bytes: &[u8]) -> u64 {
        let mut h = WordHash::new();
        h.put(bytes);
        h.finish()
    }
}

impl Sink for WordHash {
    fn put(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.pending > 0 {
            let fill = bytes.len().min(BLOCK - self.pending);
            self.tail[self.pending..self.pending + fill].copy_from_slice(&bytes[..fill]);
            self.pending += fill;
            bytes = &bytes[fill..];
            if self.pending < BLOCK {
                return;
            }
            Self::round(&mut self.lanes, &self.tail);
            self.pending = 0;
        }
        let rounds = bytes.chunks_exact(BLOCK);
        let rest = rounds.remainder();
        for round in rounds {
            Self::round(&mut self.lanes, round);
        }
        self.tail[..rest.len()].copy_from_slice(rest);
        self.pending = rest.len();
    }
}

/// A chunk of `chunks_exact(N)` as an array.
fn le_array<const N: usize>(chunk: &[u8]) -> [u8; N] {
    let mut bytes = [0u8; N];
    bytes.copy_from_slice(chunk);
    bytes
}

/// Byte-wise 64-bit FNV-1a, kept only for [`file_name`]: the name is an
/// on-disk address and must not move when the checksum does.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xCBF2_9CE4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3))
}

fn encode_map_table(e: &mut impl Sink, table: &MapTable) {
    e.u32(table.n_weights() as u32);
    e.slice(table.offsets(), |off| (off as u64).to_le_bytes());
    e.slice(table.inputs(), u32::to_le_bytes);
    e.slice(table.outputs(), u32::to_le_bytes);
}

fn encode_layer(e: &mut impl Sink, layer: &LayerTrace) {
    e.str_(&layer.name);
    e.u8(layer.compute.tag());
    e.u64(layer.n_in as u64);
    e.u64(layer.n_out as u64);
    e.u64(layer.in_ch as u64);
    e.u64(layer.out_ch as u64);
    match &layer.maps {
        None => e.u8(0),
        Some(table) => {
            e.u8(1);
            encode_map_table(e, table);
        }
    }
    e.u32(layer.mapping.len() as u32);
    for op in &layer.mapping {
        e.u8(op.tag());
        for field in op.fields() {
            e.u64(field);
        }
    }
    e.u8(layer.aggregation.tag());
    match layer.pool_group {
        None => e.u8(0),
        Some(g) => {
            e.u8(1);
            e.u64(g as u64);
        }
    }
    e.u8(u8::from(layer.fusable));
}

/// The trace section: the canonical encoding of a trace.
fn encode_trace(e: &mut impl Sink, trace: &NetworkTrace) {
    e.str_(&trace.network);
    e.str_(&trace.input_desc);
    e.u32(trace.layers.len() as u32);
    for layer in &trace.layers {
        encode_layer(e, layer);
    }
}

/// The word hash of the trace section [`encode`] writes, streamed
/// without a buffer; see [`NetworkTrace::fingerprint`].
pub(crate) fn fingerprint(trace: &NetworkTrace) -> u64 {
    let mut h = WordHash::new();
    encode_trace(&mut h, trace);
    h.finish()
}

/// Serializes `trace` under `key` into a self-validating byte stream
/// (see the module docs for the wire format). Deterministic: the same
/// `(key, trace)` pair always yields the same bytes, so artifact files
/// are bit-stable across processes and machines.
pub fn encode(key: &TraceKey, trace: &NetworkTrace) -> Vec<u8> {
    let mut len = Len(HEADER_LEN);
    encode_body(&mut len, key, trace);
    let mut out = Vec::with_capacity(len.0);
    out.put(&MAGIC);
    out.u32(FORMAT_VERSION);
    out.u64(0); // checksum, filled in once the body is written
    encode_body(&mut out, key, trace);
    let checksum = WordHash::of(&out[HEADER_LEN..]);
    out[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&checksum.to_le_bytes());
    out
}

/// Everything after the header: the key, then the trace section.
fn encode_body(e: &mut impl Sink, key: &TraceKey, trace: &NetworkTrace) {
    e.str_(&key.network);
    e.u64(key.seed);
    e.u64(key.scale_ppm);
    encode_trace(e, trace);
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Bounds-checked cursor over the artifact body: every read validates
/// the remaining length first, so no slice index or allocation can
/// exceed the received bytes.
struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Dec { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ArtifactError> {
        if self.remaining() < n {
            return Err(ArtifactError::Truncated {
                offset: self.pos,
                needed: n,
                remaining: self.remaining(),
            });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, ArtifactError> {
        Ok(self.take(1)?[0])
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], ArtifactError> {
        self.take(N).map(le_array)
    }

    fn u32(&mut self) -> Result<u32, ArtifactError> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, ArtifactError> {
        self.array().map(u64::from_le_bytes)
    }

    /// `u64` narrowed to `usize` (rejects values above the platform's
    /// address width instead of silently wrapping).
    fn usize_(&mut self) -> Result<usize, ArtifactError> {
        let offset = self.pos;
        narrow(offset, self.u64()?)
    }

    /// `count` items of `N` little-endian bytes each, read after one
    /// bounds check on the whole array, which also bounds the allocation
    /// by the stream's length.
    fn slice<T, const N: usize>(
        &mut self,
        count: usize,
        from_le_bytes: impl Fn([u8; N]) -> T,
    ) -> Result<Vec<T>, ArtifactError> {
        let bytes = self.take(count.saturating_mul(N))?;
        Ok(bytes.chunks_exact(N).map(|item| from_le_bytes(le_array(item))).collect())
    }

    fn str_(&mut self) -> Result<String, ArtifactError> {
        let offset = self.pos;
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ArtifactError::Corrupt {
            offset,
            what: "string field is not valid UTF-8".into(),
        })
    }

    fn bool_(&mut self) -> Result<bool, ArtifactError> {
        let offset = self.pos;
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(ArtifactError::Corrupt { offset, what: format!("boolean byte {b}") }),
        }
    }

    /// Guard before allocating a vector of `count` items of `item_size`
    /// encoded bytes each: the encoded form must fit in the remaining
    /// stream, which bounds the allocation by the artifact size.
    fn check_count(&self, count: usize, item_size: usize) -> Result<(), ArtifactError> {
        let needed = count.saturating_mul(item_size);
        if needed > self.remaining() {
            return Err(ArtifactError::Truncated {
                offset: self.pos,
                needed,
                remaining: self.remaining(),
            });
        }
        Ok(())
    }
}

/// A size field read at byte `offset`, narrowed to `usize`.
fn narrow(offset: usize, v: u64) -> Result<usize, ArtifactError> {
    usize::try_from(v).map_err(|_| ArtifactError::Corrupt {
        offset,
        what: format!("size field {v} exceeds the platform usize"),
    })
}

fn decode_map_table(d: &mut Dec<'_>) -> Result<MapTable, ArtifactError> {
    let offset = d.pos;
    let n_weights = d.u32()? as usize;
    let offsets_at = d.pos;
    let offsets = d.slice(n_weights + 1, u64::from_le_bytes)?;
    let offsets = (offsets.into_iter().enumerate())
        .map(|(i, off)| narrow(offsets_at + 8 * i, off))
        .collect::<Result<Vec<usize>, _>>()?;
    let len = offsets[n_weights];
    let inputs = d.slice(len, u32::from_le_bytes)?;
    let outputs = d.slice(len, u32::from_le_bytes)?;
    MapTable::try_from_soa(inputs, outputs, offsets).map_err(|e: MapTableError| {
        ArtifactError::Corrupt { offset, what: format!("invalid map table: {e}") }
    })
}

fn decode_mapping_op(d: &mut Dec<'_>) -> Result<MappingOp, ArtifactError> {
    let offset = d.pos;
    let tag = d.u8()?;
    Ok(match tag {
        0 => MappingOp::Quantize { n_in: d.usize_()?, n_out: d.usize_()? },
        1 => MappingOp::KernelMap {
            n_in: d.usize_()?,
            n_out: d.usize_()?,
            kernel_volume: d.usize_()?,
            n_maps: d.usize_()?,
        },
        2 => MappingOp::Fps { n_in: d.usize_()?, n_out: d.usize_()? },
        3 => MappingOp::Knn { n_in: d.usize_()?, n_queries: d.usize_()?, k: d.usize_()? },
        4 => MappingOp::BallQuery { n_in: d.usize_()?, n_queries: d.usize_()?, k: d.usize_()? },
        5 => MappingOp::KnnFeature {
            n_in: d.usize_()?,
            n_queries: d.usize_()?,
            k: d.usize_()?,
            dim: d.usize_()?,
        },
        t => {
            return Err(ArtifactError::Corrupt {
                offset,
                what: format!("unknown mapping-op tag {t}"),
            })
        }
    })
}

fn decode_layer(d: &mut Dec<'_>) -> Result<LayerTrace, ArtifactError> {
    let name = d.str_()?;
    let compute_offset = d.pos;
    let compute = ComputeKind::from_tag(d.u8()?).ok_or_else(|| ArtifactError::Corrupt {
        offset: compute_offset,
        what: "unknown compute-kind tag".into(),
    })?;
    let n_in = d.usize_()?;
    let n_out = d.usize_()?;
    let in_ch = d.usize_()?;
    let out_ch = d.usize_()?;
    let maps = if d.bool_()? { Some(decode_map_table(d)?) } else { None };
    let n_ops = d.u32()? as usize;
    d.check_count(n_ops, 1)?;
    let mut mapping = Vec::with_capacity(n_ops);
    for _ in 0..n_ops {
        mapping.push(decode_mapping_op(d)?);
    }
    let agg_offset = d.pos;
    let aggregation = Aggregation::from_tag(d.u8()?).ok_or_else(|| ArtifactError::Corrupt {
        offset: agg_offset,
        what: "unknown aggregation tag".into(),
    })?;
    let pool_group = if d.bool_()? { Some(d.usize_()?) } else { None };
    let fusable = d.bool_()?;
    Ok(LayerTrace {
        name,
        compute,
        n_in,
        n_out,
        in_ch,
        out_ch,
        maps,
        mapping,
        aggregation,
        pool_group,
        fusable,
    })
}

fn decode_trace(d: &mut Dec<'_>) -> Result<NetworkTrace, ArtifactError> {
    let network = d.str_()?;
    let input_desc = d.str_()?;
    let n_layers = d.u32()? as usize;
    d.check_count(n_layers, 2)?;
    let mut layers = Vec::with_capacity(n_layers);
    for _ in 0..n_layers {
        layers.push(decode_layer(d)?);
    }
    Ok(NetworkTrace { network, input_desc, layers })
}

/// Deserializes a byte stream produced by [`encode`], validating magic,
/// version, checksum and structure. Unknown versions and truncated,
/// bit-flipped or otherwise corrupt streams are rejected with a typed
/// [`ArtifactError`]; no input can cause a panic or an allocation
/// beyond the stream's own length.
pub fn decode(bytes: &[u8]) -> Result<(TraceKey, NetworkTrace), ArtifactError> {
    let mut header = Dec::new(bytes);
    if header.take(MAGIC.len())? != MAGIC {
        return Err(ArtifactError::BadMagic);
    }
    let version = header.u32()?;
    if version != FORMAT_VERSION {
        return Err(ArtifactError::UnsupportedVersion(version));
    }
    let stored = header.u64()?;
    let body = &bytes[header.pos..];
    let computed = WordHash::of(body);
    if computed != stored {
        return Err(ArtifactError::ChecksumMismatch { stored, computed });
    }

    let mut d = Dec::new(body);
    let key = TraceKey { network: d.str_()?, seed: d.u64()?, scale_ppm: d.u64()? };
    let trace = decode_trace(&mut d)?;
    if d.pos != body.len() {
        return Err(ArtifactError::TrailingBytes { consumed: d.pos, len: body.len() });
    }
    Ok((key, trace))
}

// ---------------------------------------------------------------------
// Artifact files
// ---------------------------------------------------------------------

/// File name an artifact of `key` is stored under: the sanitized
/// network notation for greppability plus an FNV-1a hash of the exact
/// notation (sanitization is lossy — `MinkNet(i)` and `MinkNet[i]`
/// would collide without it), then seed and scale. [`load`] verifies
/// the key stored *inside* the file regardless, so even a crafted
/// collision is rejected rather than served.
pub fn file_name(key: &TraceKey) -> String {
    let sanitized: String = key
        .network
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '.' { c } else { '_' })
        .collect();
    let hash = fnv1a(key.network.as_bytes()) as u32;
    format!("{sanitized}-{hash:08x}-s{}-p{}.{EXTENSION}", key.seed, key.scale_ppm)
}

/// Monotone counter making concurrent temp-file names unique within
/// one process; the pid distinguishes processes sharing the directory.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Saves `trace` under `key` into `dir` (created if missing), returning
/// the artifact path. The write is atomic: bytes go to a unique temp
/// file first and reach the final name via `rename`, so a concurrent
/// [`load`] — from this process or another sharing the directory —
/// either sees the complete artifact or none at all. Concurrent saves
/// of the same key are idempotent last-writer-wins (the bytes are
/// deterministic, so every writer renames identical content).
pub fn save(dir: &Path, key: &TraceKey, trace: &NetworkTrace) -> Result<PathBuf, ArtifactError> {
    fs::create_dir_all(dir)?;
    let final_path = dir.join(file_name(key));
    let tmp_path = dir.join(format!(
        ".tmp-{}-{}-{}",
        std::process::id(),
        TMP_COUNTER.fetch_add(1, Ordering::Relaxed),
        file_name(key)
    ));
    let bytes = encode(key, trace);
    let mut file = fs::File::create(&tmp_path)?;
    let written = file.write_all(&bytes).and_then(|()| file.sync_all());
    drop(file);
    if let Err(e) = written.and_then(|()| fs::rename(&tmp_path, &final_path)) {
        // Best effort: never leave the temp file behind on failure.
        let _ = fs::remove_file(&tmp_path);
        return Err(e.into());
    }
    Ok(final_path)
}

/// Loads the artifact of `key` from `dir`. Returns `Ok(None)` when no
/// artifact exists for the key (a cache miss, not an error); any
/// existing-but-invalid file — truncated, corrupt, wrong version, or
/// holding a different key — is an `Err`, letting callers distinguish
/// "compile it" from "the artifact store is damaged".
///
/// Beyond the codec's integrity check (the checksum), the decoded trace
/// must pass the full static verifier
/// ([`verify_trace`](crate::verify::verify_trace)): a corruption that
/// recomputed the checksum — or a buggy writer — is still refused as
/// [`ArtifactError::Rejected`] instead of being handed to an executor
/// that would index feature rows with it.
pub fn load(dir: &Path, key: &TraceKey) -> Result<Option<NetworkTrace>, ArtifactError> {
    let path = dir.join(file_name(key));
    let bytes = match fs::read(&path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let (found, trace) = decode(&bytes)?;
    if &found != key {
        return Err(ArtifactError::KeyMismatch { requested: key.clone(), found });
    }
    crate::verify::verify_trace(key, &trace).map_err(ArtifactError::Rejected)?;
    Ok(Some(trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pointacc_geom::MapEntry;
    use proptest::prelude::*;

    fn sample_trace() -> NetworkTrace {
        let maps = MapTable::from_entries(
            vec![MapEntry::new(0, 0, 0), MapEntry::new(1, 0, 1), MapEntry::new(1, 1, 0)],
            2,
        );
        NetworkTrace {
            network: "MinkNet(i)".into(),
            input_desc: "SemanticKITTI (123 pts)".into(),
            layers: vec![
                LayerTrace {
                    name: "enc1.conv".into(),
                    compute: ComputeKind::SparseConv,
                    n_in: 2,
                    n_out: 2,
                    in_ch: 4,
                    out_ch: 8,
                    maps: Some(maps),
                    mapping: vec![MappingOp::KernelMap {
                        n_in: 2,
                        n_out: 2,
                        kernel_volume: 2,
                        n_maps: 3,
                    }],
                    aggregation: Aggregation::Sum,
                    pool_group: None,
                    fusable: false,
                },
                LayerTrace {
                    name: "head".into(),
                    compute: ComputeKind::Dense,
                    n_in: 2,
                    n_out: 2,
                    in_ch: 8,
                    out_ch: 20,
                    maps: None,
                    mapping: vec![],
                    aggregation: Aggregation::Max,
                    pool_group: Some(2),
                    fusable: true,
                },
            ],
        }
    }

    fn sample_key() -> TraceKey {
        TraceKey::new("MinkNet(i)", 42, 0.05)
    }

    #[test]
    fn encode_decode_roundtrips_bit_exactly() {
        let (key, trace) = (sample_key(), sample_trace());
        let bytes = encode(&key, &trace);
        let (key2, trace2) = decode(&bytes).unwrap();
        assert_eq!(key2, key);
        assert_eq!(trace2, trace);
        assert_eq!(trace2.fingerprint(), trace.fingerprint());
        // Determinism: re-encoding the decoded trace yields the same
        // bytes, so artifacts are bit-stable across processes.
        assert_eq!(encode(&key2, &trace2), bytes);
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = encode(&sample_key(), &sample_trace());
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "prefix of {cut} bytes must be rejected");
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let bytes = encode(&sample_key(), &sample_trace());
        for byte in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[byte] ^= 1 << (byte % 8);
            assert!(
                decode(&flipped).is_err(),
                "flip of bit {} in byte {byte} must be rejected",
                byte % 8
            );
        }
    }

    #[test]
    fn unknown_versions_are_rejected_with_the_version() {
        let mut bytes = encode(&sample_key(), &sample_trace());
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(decode(&bytes), Err(ArtifactError::UnsupportedVersion(1)));
    }

    #[test]
    fn fingerprint_is_the_hash_of_the_encoded_trace_section() {
        // Pinned values of the word hash: the empty stream, a stream that
        // is all tail, one word plus a five-byte tail, and six full
        // rounds of the four lanes plus one word.
        assert_eq!(WordHash::of(b""), 0xFD0A_CB03_B79B_6FD5);
        assert_eq!(WordHash::of(b"MinkNet"), 0x02DA_DCAB_E391_A2C9);
        assert_eq!(WordHash::of(b"MinkNet(i)-42"), 0xFA4A_6F1B_0006_1729);
        let ramp: Vec<u8> = (0..200).collect();
        assert_eq!(WordHash::of(&ramp), 0xDF46_84DE_F2E0_A06F);
        let key = sample_key();
        let mut renamed = sample_trace();
        renamed.network = "other".into();
        renamed.layers[0].name = "other.conv".into();
        for trace in [sample_trace(), renamed] {
            let bytes = encode(&key, &trace);
            assert_eq!(trace.fingerprint(), WordHash::of(trace_section(&key, &bytes)));
        }
    }

    /// The trace section of `bytes`, an artifact of `key`.
    fn trace_section<'a>(key: &TraceKey, bytes: &'a [u8]) -> &'a [u8] {
        &bytes[HEADER_LEN + 4 + key.network.len() + 8 + 8..]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn any_split_of_the_stream_hashes_like_one_put(
            bytes in prop::collection::vec(0u16..256, 0..5_001)
                .prop_map(|v| v.into_iter().map(|b| b as u8).collect::<Vec<u8>>()),
            mut cuts in prop::collection::vec(0usize..5_001, 0..24),
        ) {
            cuts.iter_mut().for_each(|cut| *cut = (*cut).min(bytes.len()));
            cuts.sort_unstable();
            let mut h = WordHash::new();
            let mut from = 0;
            for cut in cuts.into_iter().chain([bytes.len()]) {
                h.put(&bytes[from..cut]);
                from = cut;
            }
            prop_assert_eq!(h.finish(), WordHash::of(&bytes));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Tables of 1 000 to 5 000 maps span many staging buffers, and
        /// names whose lengths are not multiples of 8 make puts start and
        /// end inside words.
        #[test]
        fn large_tables_fingerprint_their_section_and_reject_damage(
            tables in prop::collection::vec(
                prop::collection::vec((0u32..60_000, 0u32..60_000, 0u16..27), 1_000..5_001),
                1..4,
            ),
            name_words in 0usize..8,
            sel in 0u64..u64::MAX,
        ) {
            let (key, mut trace) = (sample_key(), sample_trace());
            trace.network = "n".repeat(8 * name_words + 3);
            trace.layers = (tables.into_iter().enumerate())
                .map(|(i, entries)| {
                    let mut layer = sample_trace().layers[0].clone();
                    layer.name = format!("layer{i}.{}", "c".repeat(8 * name_words + 4));
                    let entries = entries.into_iter().map(|(i, o, w)| MapEntry::new(i, o, w));
                    layer.maps = Some(MapTable::from_entries(entries.collect(), 27));
                    layer
                })
                .collect();
            let bytes = encode(&key, &trace);
            prop_assert_eq!(trace.fingerprint(), WordHash::of(trace_section(&key, &bytes)));
            prop_assert_eq!(decode(&bytes), Ok((key.clone(), trace)));
            let cut = (sel % bytes.len() as u64) as usize;
            prop_assert!(decode(&bytes[..cut]).is_err(), "a {}-byte prefix", cut);
            let mut flipped = bytes;
            flipped[cut] ^= 1 << (sel / 7 % 8);
            prop_assert!(decode(&flipped).is_err(), "a flip in byte {}", cut);
        }
    }

    #[test]
    fn bad_magic_and_trailing_bytes_are_rejected() {
        let mut bytes = encode(&sample_key(), &sample_trace());
        bytes[0] = b'X';
        assert_eq!(decode(&bytes), Err(ArtifactError::BadMagic));
        let mut padded = encode(&sample_key(), &sample_trace());
        padded.push(0);
        // Appended garbage lands inside the checksummed region.
        assert!(matches!(decode(&padded), Err(ArtifactError::ChecksumMismatch { .. })));
    }

    #[test]
    fn empty_and_tiny_streams_are_truncation_errors() {
        assert!(matches!(decode(&[]), Err(ArtifactError::Truncated { .. })));
        assert!(matches!(decode(&MAGIC[..5]), Err(ArtifactError::Truncated { .. })));
    }

    #[test]
    fn file_names_are_fs_safe_and_key_distinct() {
        let a = file_name(&TraceKey::new("MinkNet(i)", 42, 0.05));
        let b = file_name(&TraceKey::new("MinkNet(o)", 42, 0.05));
        let c = file_name(&TraceKey::new("MinkNet(i)", 43, 0.05));
        let d = file_name(&TraceKey::new("MinkNet(i)", 42, 0.1));
        // The name is an address on disk, not an integrity hash: it stays
        // put when the checksum changes.
        assert_eq!(a, "MinkNet_i_-6e03f1e7-s42-p50000.trace");
        assert!(a.chars().all(|ch| ch.is_ascii_alphanumeric() || "-._".contains(ch)), "{a}");
        assert!(a != b && a != c && a != d);
        // Sanitization alone would collide these; the embedded hash of
        // the exact notation keeps the files apart.
        let e = file_name(&TraceKey::new("MinkNet[i]", 42, 0.05));
        assert_ne!(a, e);
    }

    #[test]
    fn save_load_roundtrips_and_misses_cleanly() {
        let dir = std::env::temp_dir()
            .join(format!("pointacc-artifact-test-{}", std::process::id()))
            .join("roundtrip");
        let (key, trace) = (sample_key(), sample_trace());
        let path = save(&dir, &key, &trace).unwrap();
        assert!(path.starts_with(&dir));
        assert_eq!(load(&dir, &key).unwrap(), Some(trace.clone()));
        // A key without an artifact is a clean miss, not an error.
        assert_eq!(load(&dir, &TraceKey::new("PointNet", 1, 0.5)).unwrap(), None);
        // A damaged file is an error, not a panic or a bogus trace.
        fs::write(dir.join(file_name(&key)), b"PACCTRC1 garbage").unwrap();
        assert!(load(&dir, &key).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_rejects_corrupt_artifacts_with_recomputed_integrity_metadata() {
        let dir = std::env::temp_dir()
            .join(format!("pointacc-artifact-test-{}", std::process::id()))
            .join("verify-reject");
        let (key, mut trace) = (sample_key(), sample_trace());
        // Flip a map's input index out of bounds, then write the trace
        // through the honest encoder — which computes the checksum over
        // the corrupted table, so the codec's integrity check passes.
        // Only the static verifier stands between this file and a
        // gather that indexes row 99 of 2.
        let m = trace.layers[0].maps.as_mut().unwrap();
        let mut inputs = m.inputs().to_vec();
        inputs[0] = 99;
        *m = MapTable::try_from_soa(inputs, m.outputs().to_vec(), m.offsets().to_vec()).unwrap();
        save(&dir, &key, &trace).unwrap();
        // decode alone accepts the bytes (the checksum is valid) — the
        // rejection is the verifier's.
        let bytes = fs::read(dir.join(file_name(&key))).unwrap();
        assert!(decode(&bytes).is_ok());
        match load(&dir, &key) {
            Err(ArtifactError::Rejected(crate::verify::VerifyError::InputIndexOutOfBounds {
                layer: 0,
                index: 99,
                bound: 2,
                ..
            })) => {}
            other => panic!("expected a verifier rejection, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_rejects_a_file_holding_a_different_key() {
        let dir = std::env::temp_dir()
            .join(format!("pointacc-artifact-test-{}", std::process::id()))
            .join("keymismatch");
        let (key, trace) = (sample_key(), sample_trace());
        let other = TraceKey::new("PointNet", 7, 0.25);
        // Simulate a renamed/misplaced artifact: valid bytes for `key`
        // sitting under `other`'s file name.
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(file_name(&other)), encode(&key, &trace)).unwrap();
        assert_eq!(
            load(&dir, &other),
            Err(ArtifactError::KeyMismatch { requested: other, found: key })
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
