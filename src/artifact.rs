//! The compiled-model artifact: a PBQP solution as shippable bytes.
//!
//! A [`CompiledModel`] is everything the serving side needs and nothing
//! it has to recompute from scratch: the graph, the legalized execution
//! plan (with its output-conversion chains), the weights **including any
//! pre-quantized int8 images**, the primitive-library tag, the default
//! serving parallelism, and the compiled execution schedule (the
//! activation memory plan). [`CompiledModel::save`] /
//! [`CompiledModel::load`] move it across machines as a versioned,
//! fingerprint-validated binary stream — solve on the build host, serve
//! on the edge.
//!
//! # Format
//!
//! Hand-rolled little-endian binary (the deployment target is offline —
//! no serde), all multi-byte values via [`pbqp_dnn_tensor::wire`]:
//!
//! | offset | field |
//! |---|---|
//! | 0 | magic `PBQPDNN\0` (8 bytes) |
//! | 8 | format version (`u32`, currently 2) |
//! | 12 | graph fingerprint (`u64`, revalidated after decoding) |
//! | 20 | artifact fingerprint (`u64`, keys plan caches) |
//! | 28 | primitive-library code (`u8`) |
//! | 29 | default parallelism (`u64` inter-op, `u64` intra-op) |
//! | 45 | body length (`u64`) |
//! | 53 | stream checksum (`u64`, word-wise FNV over every other byte) |
//! | 61 | body: graph, plan, weights sections |
//!
//! The checksum covers the whole stream (header fields and body, minus
//! itself), so in-transit corruption anywhere — including a flipped
//! weight tap, which no structural fingerprint would notice — is
//! rejected at load instead of serving silently wrong results. The graph
//! fingerprint is defense in depth on top: it revalidates the *decoded*
//! structure against the header, catching checksum-valid but mis-paired
//! or mis-encoded streams.
//!
//! **Version policy:** the version is bumped on any incompatible change
//! and [`CompiledModel::load`] rejects every version it was not built
//! for — artifacts are deployment artifacts, not archival formats, so
//! there is no cross-version migration; recompile from the model instead.
//!
//! **Version history:** v1 encoded non-conv layers as layout-only
//! zero-cost "dummy" assignments. v2's plan section carries full
//! operator assignments (op kernel + `Repr` pair + cost) for every
//! non-conv node, plus the `Add` layer kind. v3 shrank the layout set
//! from eight to five, so every layout and repr tag after `CHW` moved.
//! Older artifacts are refused with [`ArtifactError::UnsupportedVersion`]
//! (a clean, versioned error, never a misparse), and serving hosts should
//! recompile from the model.

use std::fmt;
use std::io::{Read, Write};
use std::sync::Arc;

use pbqp_dnn_graph::DnnGraph;
use pbqp_dnn_primitives::registry::Registry;
use pbqp_dnn_runtime::{faults, Parallelism, Schedule, Weights};
use pbqp_dnn_select::{wire as plan_wire, ExecutionPlan};
use pbqp_dnn_tensor::wire::{self, WireError, WireReader};

use crate::compile::PrimitiveLibrary;
use crate::serve::Engine;
use crate::Error;

/// The artifact magic bytes.
pub const MAGIC: [u8; 8] = *b"PBQPDNN\0";

/// The current (and only supported) artifact format version. Bumped to 2
/// when the plan wire section started encoding non-conv operator
/// assignments (first-class operator selection), and to 3 when the layout
/// set shrank from eight to five (layout and repr tags are indices into
/// `Layout::ALL` / `Repr::ALL`); older artifacts are rejected with a
/// versioned error.
pub const FORMAT_VERSION: u32 = 3;

/// Byte offset of the header's stream checksum (everything before it,
/// plus the body after it, is what the checksum covers).
const CHECKSUM_OFFSET: usize = 53;

/// Checksum over the stream minus the checksum field itself: the FNV-1a
/// xor-multiply step applied to 8-byte little-endian words (each section
/// zero-padded to a word boundary, section lengths folded in so padding
/// cannot alias) rather than single bytes — weight payloads are
/// megabytes, and the word-wise definition makes validation one multiply
/// per 8 bytes instead of per byte, at identical stability.
fn stream_checksum(header: &[u8], body: &[u8]) -> u64 {
    const PRIME: u64 = 0x100000001b3;
    let mut acc: u64 = 0xcbf29ce484222325;
    let eat = |acc: u64, word: u64| (acc ^ word).wrapping_mul(PRIME);
    for section in [header, body] {
        acc = eat(acc, section.len() as u64);
        let mut chunks = section.chunks_exact(8);
        for chunk in &mut chunks {
            acc = eat(acc, u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            acc = eat(acc, u64::from_le_bytes(word));
        }
    }
    acc
}

/// Errors from decoding or validating a compiled-model artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactError {
    /// The stream does not start with the artifact magic.
    BadMagic,
    /// The artifact was written by an incompatible format version.
    UnsupportedVersion {
        /// Version found in the stream.
        found: u32,
        /// Version this build reads.
        supported: u32,
    },
    /// The decoded graph's structural fingerprint disagrees with the
    /// header — the artifact was corrupted or tampered with in transit.
    FingerprintMismatch {
        /// Fingerprint recorded in the header.
        expected: u64,
        /// Fingerprint recomputed from the decoded graph.
        found: u64,
    },
    /// The header names a primitive library this build does not know.
    UnknownLibrary(u8),
    /// The stream's bytes do not hash to the header's checksum — the
    /// artifact was corrupted in transit.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum recomputed from the received bytes.
        found: u64,
    },
    /// A section failed to decode (truncation or corruption).
    Wire(WireError),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::BadMagic => f.write_str("not a pbqp-dnn compiled-model artifact"),
            ArtifactError::UnsupportedVersion { found, supported } => {
                write!(f, "artifact format version {found}, this build reads {supported}")
            }
            ArtifactError::FingerprintMismatch { expected, found } => {
                write!(f, "graph fingerprint {found:#018x} != header {expected:#018x}")
            }
            ArtifactError::UnknownLibrary(code) => {
                write!(f, "unknown primitive-library code {code}")
            }
            ArtifactError::ChecksumMismatch { expected, found } => {
                write!(f, "stream checksum {found:#018x} != header {expected:#018x}")
            }
            ArtifactError::Wire(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<WireError> for ArtifactError {
    fn from(e: WireError) -> Self {
        ArtifactError::Wire(e)
    }
}

impl From<WireError> for Error {
    fn from(e: WireError) -> Self {
        Error::Artifact(ArtifactError::Wire(e))
    }
}

/// A self-contained compiled model: the output of
/// [`Compiler::compile`](crate::Compiler::compile) and the unit that
/// ships between machines.
///
/// Holds the graph, the legalized plan (with output-conversion chains),
/// the weights (with pre-quantized int8 images for int8-assigned
/// layers), the rebuilt primitive registry and the compiled execution
/// [`Schedule`] — so [`CompiledModel::engine`] is infallible and
/// serving-ready. All heavyweight state is behind [`Arc`]s; cloning a
/// compiled model or spawning engines from it is cheap.
///
/// # Example
///
/// ```
/// use pbqp_dnn::prelude::*;
///
/// let net = models::micro_alexnet();
/// let weights = Weights::random(&net, 42);
/// let model = Compiler::new(CompileOptions::new()).compile(&net, &weights).unwrap();
///
/// // Ship the solved plan as bytes…
/// let mut bytes = Vec::new();
/// model.save(&mut bytes).unwrap();
/// let loaded = CompiledModel::load(&mut bytes.as_slice()).unwrap();
///
/// // …and the loaded model serves bit-identically.
/// let (c, h, w) = net.infer_shapes().unwrap()[0];
/// let input = Tensor::random(c, h, w, Layout::Chw, 7);
/// let a = model.engine().infer(&input).unwrap();
/// let b = loaded.engine().infer(&input).unwrap();
/// assert_eq!(a.data(), b.data());
/// ```
#[derive(Clone)]
pub struct CompiledModel {
    graph: Arc<DnnGraph>,
    plan: Arc<ExecutionPlan>,
    weights: Arc<Weights>,
    registry: Arc<Registry>,
    schedule: Arc<Schedule>,
    library: PrimitiveLibrary,
    parallelism: Parallelism,
    fingerprint: u64,
}

impl CompiledModel {
    /// Builds a compiled model from its parts, compiling (and thereby
    /// validating) the execution schedule: primitives resolved, weights
    /// checked against the graph, int8 kernels pre-quantized, activation
    /// memory plan computed.
    pub(crate) fn assemble(
        graph: Arc<DnnGraph>,
        plan: Arc<ExecutionPlan>,
        weights: Arc<Weights>,
        registry: Arc<Registry>,
        library: PrimitiveLibrary,
        parallelism: Parallelism,
        fingerprint: u64,
    ) -> Result<CompiledModel, Error> {
        let schedule = Arc::new(Schedule::compile(&graph, &plan, &registry, &weights)?);
        Ok(CompiledModel {
            graph,
            plan,
            weights,
            registry,
            schedule,
            library,
            parallelism,
            fingerprint,
        })
    }

    /// The network this model was compiled for.
    pub fn graph(&self) -> &DnnGraph {
        &self.graph
    }

    /// The legalized execution plan (selections, DT chains, boundary
    /// conversions, predicted latency).
    pub fn plan(&self) -> &ExecutionPlan {
        &self.plan
    }

    /// The trained parameters, including any pre-quantized int8 images.
    pub fn weights(&self) -> &Weights {
        &self.weights
    }

    /// The artifact fingerprint: a stable hash of (graph, strategy, cost
    /// source, library) that keys plan caches and identifies this
    /// artifact across machines.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The primitive library the plan selects from.
    pub fn library(&self) -> PrimitiveLibrary {
        self.library
    }

    /// The default serving parallelism baked in at compile time.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Pooled activation slots in the compiled memory plan (bounded by
    /// peak working set, not node count).
    pub fn activation_slots(&self) -> usize {
        self.schedule.activation_slots()
    }

    /// Shared handles for the serving layer: schedule, graph, plan,
    /// weights and registry — the last two power the engine's degraded
    /// reference path and quarantine re-planning.
    #[allow(clippy::type_complexity)]
    pub(crate) fn serving_parts(
        &self,
    ) -> (Arc<Schedule>, Arc<DnnGraph>, Arc<ExecutionPlan>, Arc<Weights>, Arc<Registry>) {
        (
            Arc::clone(&self.schedule),
            Arc::clone(&self.graph),
            Arc::clone(&self.plan),
            Arc::clone(&self.weights),
            Arc::clone(&self.registry),
        )
    }

    /// The registry rebuilt from the library tag (power-user access).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Creates a serving [`Engine`] sharing this model's state.
    /// Infallible: every validation already happened at assembly.
    pub fn engine(&self) -> Engine {
        Engine::from_model(self)
    }

    /// Serializes the model into `w` using the versioned binary format
    /// described in the [module docs](self).
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on write failure.
    pub fn save<W: Write + ?Sized>(&self, w: &mut W) -> Result<(), Error> {
        let mut body = Vec::new();
        plan_wire::put_graph(&mut body, &self.graph);
        plan_wire::put_plan(&mut body, &self.plan);
        self.weights.encode_into(&mut body);

        let mut out = Vec::with_capacity(body.len() + 64);
        out.extend_from_slice(&MAGIC);
        wire::put_u32(&mut out, FORMAT_VERSION);
        wire::put_u64(&mut out, self.graph.fingerprint());
        wire::put_u64(&mut out, self.fingerprint);
        wire::put_u8(&mut out, self.library.code());
        wire::put_usize(&mut out, self.parallelism.inter_op);
        wire::put_usize(&mut out, self.parallelism.intra_op);
        wire::put_usize(&mut out, body.len());
        let checksum = stream_checksum(&out, &body);
        wire::put_u64(&mut out, checksum);
        out.extend_from_slice(&body);
        w.write_all(&out)?;
        Ok(())
    }

    /// Deserializes a model written by [`CompiledModel::save`], verifying
    /// magic, format version and the graph fingerprint, then recompiling
    /// the execution schedule so the result is immediately servable.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on read failure; [`Error::Artifact`] for bad magic,
    /// unsupported versions, fingerprint mismatches, truncation or
    /// corruption; [`Error::Runtime`] if the decoded plan cannot be
    /// scheduled (e.g. it names primitives this build does not ship).
    /// A panic anywhere in decoding is contained into
    /// [`RuntimeError::Panicked`](pbqp_dnn_runtime::RuntimeError) — a
    /// hostile or corrupt stream can fail the load, never the process.
    pub fn load<R: Read + ?Sized>(r: &mut R) -> Result<CompiledModel, Error> {
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes)?;
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| Self::load_bytes(bytes))) {
            Ok(result) => result,
            Err(payload) => Err(Error::Runtime(pbqp_dnn_runtime::RuntimeError::Panicked {
                context: "artifact load".to_owned(),
                message: faults::panic_message(payload),
            })),
        }
    }

    /// The decode stage of [`CompiledModel::load`], separated so the
    /// `artifact.read` failpoint and the panic containment wrap all of
    /// it.
    fn load_bytes(mut bytes: Vec<u8>) -> Result<CompiledModel, Error> {
        match faults::hit(faults::ARTIFACT_READ) {
            // A short read feeds the normal truncation path: the body
            // length check below reports `WireError::Truncated`.
            Some(faults::Injected::ShortRead(n)) => {
                let n = n.clamp(1, bytes.len());
                bytes.truncate(bytes.len() - n);
            }
            Some(faults::Injected::Error(message)) => {
                return Err(Error::Io(std::io::Error::other(message)));
            }
            None => {}
        }
        let mut reader = WireReader::new(&bytes);

        let magic = reader.take(8).map_err(|_| ArtifactError::BadMagic)?;
        if magic != MAGIC {
            return Err(ArtifactError::BadMagic.into());
        }
        let version = reader.u32().map_err(ArtifactError::from)?;
        if version != FORMAT_VERSION {
            return Err(ArtifactError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            }
            .into());
        }
        let graph_fingerprint = reader.u64().map_err(ArtifactError::from)?;
        let fingerprint = reader.u64().map_err(ArtifactError::from)?;
        let library_code = reader.u8().map_err(ArtifactError::from)?;
        let library = PrimitiveLibrary::from_code(library_code)
            .ok_or(ArtifactError::UnknownLibrary(library_code))?;
        let inter_op = reader.usize().map_err(ArtifactError::from)?;
        let intra_op = reader.usize().map_err(ArtifactError::from)?;
        let parallelism = Parallelism::serial().with_inter_op(inter_op).with_intra_op(intra_op);
        let body_len = reader.usize().map_err(ArtifactError::from)?;
        let checksum = reader.u64().map_err(ArtifactError::from)?;
        if reader.remaining() < body_len {
            return Err(ArtifactError::Wire(WireError::Truncated).into());
        }
        if reader.remaining() > body_len {
            return Err(ArtifactError::Wire(WireError::Corrupt(
                "trailing bytes after artifact body".into(),
            ))
            .into());
        }
        let header = &bytes[..CHECKSUM_OFFSET];
        let body = &bytes[CHECKSUM_OFFSET + 8..];
        let found = stream_checksum(header, body);
        if found != checksum {
            return Err(ArtifactError::ChecksumMismatch { expected: checksum, found }.into());
        }

        let graph = plan_wire::get_graph(&mut reader).map_err(ArtifactError::from)?;
        let found = graph.fingerprint();
        if found != graph_fingerprint {
            return Err(
                ArtifactError::FingerprintMismatch { expected: graph_fingerprint, found }.into()
            );
        }
        let plan = plan_wire::get_plan(&mut reader, &graph).map_err(ArtifactError::from)?;
        let weights = Weights::decode_from(&mut reader).map_err(ArtifactError::from)?;
        if !reader.is_empty() {
            return Err(ArtifactError::Wire(WireError::Corrupt(
                "trailing bytes after weights section".into(),
            ))
            .into());
        }

        CompiledModel::assemble(
            Arc::new(graph),
            Arc::new(plan),
            Arc::new(weights),
            Arc::new(library.registry()),
            library,
            parallelism,
            fingerprint,
        )
    }
}

impl fmt::Debug for CompiledModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledModel")
            .field("nodes", &self.graph.len())
            .field("library", &self.library)
            .field("fingerprint", &format_args!("{:#018x}", self.fingerprint))
            .field("predicted_us", &self.plan.predicted_us)
            .finish()
    }
}
