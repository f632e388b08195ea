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
//! # Wire format (version 2, little-endian)
//!
//! ```text
//! magic    [u8; 8]  b"PACCTRC1"
//! version  u32      FORMAT_VERSION (readers reject every other version)
//! checksum u64      FNV-1a over every byte after this field
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
//! The trace section is the canonical encoding of a [`NetworkTrace`]:
//! [`NetworkTrace::fingerprint`] is FNV-1a over exactly those bytes,
//! streamed through the same encoder without building a buffer. Every
//! field on the wire, names included, is therefore covered by the
//! fingerprint, and no second field list exists to drift from it.
//!
//! Validation on load is layered: the checksum is the one integrity
//! hash and rejects any bit flip or truncation, the parser
//! bounds-checks every length prefix before allocating, map tables
//! rebuild through the validating [`MapTable::try_from_soa`], and
//! [`load`] runs the static verifier on the decoded trace. Version 1
//! files (which also stored the fingerprint) are rejected as
//! [`ArtifactError::UnsupportedVersion`]; the trace cache recompiles
//! and rewrites them.

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
pub const FORMAT_VERSION: u32 = 2;

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

/// Where the encoder writes: a byte buffer for [`encode`], or [`Fnv`]
/// for [`NetworkTrace::fingerprint`], which hashes the same bytes
/// without materializing them.
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
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// Incremental 64-bit FNV-1a: the artifact checksum, the file-name hash
/// and, fed by the encoder, the trace fingerprint.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn of(bytes: &[u8]) -> u64 {
        let mut h = Fnv::new();
        h.put(bytes);
        h.0
    }
}

impl Sink for Fnv {
    fn put(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

fn encode_map_table(e: &mut impl Sink, table: &MapTable) {
    e.u32(table.n_weights() as u32);
    for &off in table.offsets() {
        e.u64(off as u64);
    }
    for &input in table.inputs() {
        e.u32(input);
    }
    for &output in table.outputs() {
        e.u32(output);
    }
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

/// FNV-1a over the trace section [`encode`] writes, streamed without a
/// buffer; see [`NetworkTrace::fingerprint`].
pub(crate) fn fingerprint(trace: &NetworkTrace) -> u64 {
    let mut h = Fnv::new();
    encode_trace(&mut h, trace);
    h.0
}

/// Serializes `trace` under `key` into a self-validating byte stream
/// (see the module docs for the wire format). Deterministic: the same
/// `(key, trace)` pair always yields the same bytes, so artifact files
/// are bit-stable across processes and machines.
pub fn encode(key: &TraceKey, trace: &NetworkTrace) -> Vec<u8> {
    let mut out = Vec::new();
    out.put(&MAGIC);
    out.u32(FORMAT_VERSION);
    out.u64(0); // checksum, filled in once the body is written
    out.str_(&key.network);
    out.u64(key.seed);
    out.u64(key.scale_ppm);
    encode_trace(&mut out, trace);
    let checksum = Fnv::of(&out[HEADER_LEN..]);
    out[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&checksum.to_le_bytes());
    out
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

    fn u32(&mut self) -> Result<u32, ArtifactError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, ArtifactError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// `u64` narrowed to `usize` (rejects values above the platform's
    /// address width instead of silently wrapping).
    fn usize_(&mut self) -> Result<usize, ArtifactError> {
        let offset = self.pos;
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| ArtifactError::Corrupt {
            offset,
            what: format!("size field {v} exceeds the platform usize"),
        })
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

fn decode_map_table(d: &mut Dec<'_>) -> Result<MapTable, ArtifactError> {
    let offset = d.pos;
    let n_weights = d.u32()? as usize;
    d.check_count(n_weights + 1, 8)?;
    let mut offsets = Vec::with_capacity(n_weights + 1);
    for _ in 0..=n_weights {
        offsets.push(d.usize_()?);
    }
    let len = *offsets.last().expect("n_weights + 1 >= 1 offsets");
    d.check_count(len, 8)?;
    let mut inputs = Vec::with_capacity(len);
    for _ in 0..len {
        inputs.push(d.u32()?);
    }
    let mut outputs = Vec::with_capacity(len);
    for _ in 0..len {
        outputs.push(d.u32()?);
    }
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
    let computed = Fnv::of(body);
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
    let hash = Fnv::of(key.network.as_bytes()) as u32;
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
        assert_eq!(Fnv::of(b"a"), 0xAF63_DC4C_8601_EC8C, "FNV-1a reference vector");
        let key = sample_key();
        let mut renamed = sample_trace();
        renamed.network = "other".into();
        renamed.layers[0].name = "other.conv".into();
        for trace in [sample_trace(), renamed] {
            let bytes = encode(&key, &trace);
            let key_len = 4 + key.network.len() + 8 + 8;
            let section = &bytes[HEADER_LEN + key_len..];
            assert_eq!(trace.fingerprint(), Fnv::of(section), "{}", trace.network);
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
