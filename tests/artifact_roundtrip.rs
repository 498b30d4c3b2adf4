//! The shippable-artifact contract: `load(save(model))` serves
//! **bit-identically** to the freshly compiled model — for a pure-f32
//! plan and for a mixed-precision (int8-bearing) plan — and every form
//! of damage to the byte stream (bad magic, wrong version, flipped
//! fingerprint, truncation, random corruption) is rejected with an error
//! rather than a panic or a silently wrong model.
//!
//! Property-style cases are drawn from a fixed-seed splitmix64 generator,
//! matching the workspace's dependency-free proptest idiom.

use pbqp_dnn::prelude::*;
use pbqp_dnn::tensor::rng::SplitMix64;

fn save_bytes(model: &CompiledModel) -> Vec<u8> {
    let mut bytes = Vec::new();
    model.save(&mut bytes).expect("saving to a Vec cannot fail");
    bytes
}

/// Compile, ship and reload one model, then prove bit-identical serving
/// across a spread of random inputs — through both the session API and
/// the one-shot engine API.
fn check_round_trip(name: &str, net: &DnnGraph, mixed: bool, rng: &mut SplitMix64) {
    let weights = Weights::random(net, rng.next_u64());
    let options =
        CompileOptions::new().machine(MachineModel::intel_haswell_like()).mixed_precision(mixed);
    let model = Compiler::new(options).compile(net, &weights).expect("compiles");
    if mixed {
        assert!(
            !model.plan().int8_layers().is_empty(),
            "{name}: precondition — the mixed fixture must select int8"
        );
    }

    let bytes = save_bytes(&model);
    let loaded = CompiledModel::load(&mut bytes.as_slice()).expect("round trip loads");
    assert_eq!(loaded.fingerprint(), model.fingerprint());
    assert_eq!(loaded.library(), model.library());
    assert_eq!(loaded.graph().fingerprint(), model.graph().fingerprint());
    assert_eq!(loaded.plan().predicted_us.to_bits(), model.plan().predicted_us.to_bits());
    assert_eq!(loaded.activation_slots(), model.activation_slots());

    // Saving the loaded model reproduces the artifact byte-for-byte.
    assert_eq!(save_bytes(&loaded), bytes, "{name}: save is not canonical");

    let fresh_engine = model.engine();
    let mut fresh = fresh_engine.session();
    let mut shipped = loaded.engine().session();
    let (c, h, w) = net.infer_shapes().unwrap()[0];
    let mut out_a = Tensor::empty();
    let mut out_b = Tensor::empty();
    for _ in 0..5 {
        let input = Tensor::random(c, h, w, Layout::Chw, rng.next_u64());
        fresh.infer(&input, &mut out_a).expect("fresh model serves");
        shipped.infer(&input, &mut out_b).expect("loaded model serves");
        assert_eq!(out_a.data(), out_b.data(), "{name}: loaded model diverged");
        assert_eq!(out_a.dims(), out_b.dims());
        // One-shot engine API agrees too.
        assert_eq!(fresh_engine.infer(&input).unwrap().data(), out_a.data());
    }
}

#[test]
fn f32_plans_round_trip_bit_identically() {
    let mut rng = SplitMix64::new(0xA57_1FAC7);
    check_round_trip("micro_alexnet", &models::micro_alexnet(), false, &mut rng);
    check_round_trip("micro_inception", &models::micro_inception(), false, &mut rng);
}

#[test]
fn mixed_precision_plans_round_trip_bit_identically() {
    let mut rng = SplitMix64::new(0x8BAD_F00D_1238);
    check_round_trip("micro_mixed", &models::micro_mixed(), true, &mut rng);
}

#[test]
fn micro_resnet_mixed_plan_round_trips_bit_identically() {
    // The residual network exercises the v2 wire format end to end:
    // `Add` layer encoding, per-node op-kernel assignments (including
    // int8 relu/pool selections) and the fan-out/fan-in edge set.
    let mut rng = SplitMix64::new(0x0DD_B177E5);
    check_round_trip("micro_resnet", &models::micro_resnet(), true, &mut rng);
}

#[test]
fn loaded_mixed_model_reuses_the_shipped_weight_image() {
    // The artifact carries the pre-quantized int8 weight images; loading
    // must restore them into the kernels' caches rather than rescanning
    // the f32 taps on the serving host.
    let net = models::micro_mixed();
    let weights = Weights::random(&net, 0xFEED);
    let model =
        Compiler::new(CompileOptions::new().mixed_precision(true)).compile(&net, &weights).unwrap();
    let int8_layers = model.plan().int8_layers();
    assert!(!int8_layers.is_empty(), "precondition");
    let bytes = save_bytes(&model);
    let loaded = CompiledModel::load(&mut bytes.as_slice()).unwrap();
    for node in int8_layers {
        let kernel = loaded.weights().conv_kernel(node).expect("conv weights shipped");
        assert!(kernel.has_quantized(), "int8 image must arrive pre-quantized");
        assert_eq!(*kernel.quantized(), *model.weights().conv_kernel(node).unwrap().quantized());
    }
}

#[test]
fn bad_magic_and_wrong_version_are_rejected() {
    let net = models::micro_mixed();
    let model = Compiler::new(CompileOptions::new().mixed_precision(true))
        .compile(&net, &Weights::random(&net, 1))
        .unwrap();
    let bytes = save_bytes(&model);

    // Any damage to the magic bytes.
    for i in 0..8 {
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 0x5A;
        let err = CompiledModel::load(&mut corrupt.as_slice()).unwrap_err();
        assert!(
            matches!(err, Error::Artifact(ArtifactError::BadMagic)),
            "magic byte {i}: got {err}"
        );
    }

    // A future format version is refused, not misparsed.
    let mut future = bytes.clone();
    future[8] = future[8].wrapping_add(1);
    let err = CompiledModel::load(&mut future.as_slice()).unwrap_err();
    assert!(matches!(
        err,
        Error::Artifact(ArtifactError::UnsupportedVersion {
            supported: pbqp_dnn::FORMAT_VERSION,
            ..
        })
    ));

    // Not-even-an-artifact streams.
    for junk in [&b""[..], &b"PBQP"[..], &[0u8; 64][..]] {
        assert!(CompiledModel::load(&mut <&[u8]>::clone(&junk)).is_err());
    }
}

#[test]
fn v1_header_artifacts_are_refused_with_the_version_error() {
    // Format v1 encoded non-conv layers as layout-only dummy
    // assignments; v2 numbered eight layouts, so its layout and repr tags
    // mean other layouts under v3's five. An older-header artifact must
    // be refused with the *versioned* error — never a panic, and never a
    // silent misparse into a wrong model — even when everything else
    // about the stream (magic, checksum, body framing) looks perfectly
    // valid.
    assert_eq!(pbqp_dnn::FORMAT_VERSION, 3, "bump this fixture alongside the format");
    let net = models::micro_resnet();
    let model = Compiler::new(CompileOptions::new().mixed_precision(true))
        .compile(&net, &Weights::random(&net, 7))
        .unwrap();
    for found in [1u32, 2] {
        let mut old = save_bytes(&model);
        old[8..12].copy_from_slice(&found.to_le_bytes());

        // With a stale checksum the version gate still fires first…
        let err = CompiledModel::load(&mut old.as_slice()).unwrap_err();
        assert!(
            matches!(
                err,
                Error::Artifact(ArtifactError::UnsupportedVersion { found: f, supported: 3 })
                    if f == found
            ),
            "stale-checksum v{found} header: got {err}"
        );

        // …and a checksum-consistent stream is refused by the version
        // check itself, proving rejection does not ride on the checksum.
        refresh_checksum(&mut old);
        let err = CompiledModel::load(&mut old.as_slice()).unwrap_err();
        assert!(
            matches!(
                err,
                Error::Artifact(ArtifactError::UnsupportedVersion { found: f, supported: 3 })
                    if f == found
            ),
            "checksum-valid v{found} header: got {err}"
        );
        // The error message names both versions for the operator.
        let msg = err.to_string();
        assert!(
            msg.contains(&found.to_string()) && msg.contains('3'),
            "unhelpful version error: {msg}"
        );
    }
}

/// Rewrites the header's stream checksum to match the (possibly
/// tampered) bytes, so tests can reach the validation layers *behind*
/// the checksum. Mirrors the artifact module's word-wise FNV variant
/// (length-prefixed sections, 8-byte little-endian words, zero-padded
/// tail).
fn refresh_checksum(bytes: &mut [u8]) {
    const CHECKSUM_OFFSET: usize = 53;
    const PRIME: u64 = 0x100000001b3;
    let mut acc: u64 = 0xcbf29ce484222325;
    let eat = |acc: u64, word: u64| (acc ^ word).wrapping_mul(PRIME);
    let (head, rest) = bytes.split_at(CHECKSUM_OFFSET);
    for section in [head, &rest[8..]] {
        acc = eat(acc, section.len() as u64);
        let mut chunks = section.chunks_exact(8);
        for chunk in &mut chunks {
            acc = eat(acc, u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            acc = eat(acc, u64::from_le_bytes(word));
        }
    }
    bytes[CHECKSUM_OFFSET..CHECKSUM_OFFSET + 8].copy_from_slice(&acc.to_le_bytes());
}

#[test]
fn corruption_and_wrong_fingerprints_are_rejected() {
    let net = models::micro_alexnet();
    let model =
        Compiler::new(CompileOptions::new()).compile(&net, &Weights::random(&net, 2)).unwrap();
    let bytes = save_bytes(&model);

    // The graph fingerprint lives at bytes 12..20. A plain flip is
    // caught by the stream checksum (transport integrity)…
    for i in 12..20 {
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 0xFF;
        let err = CompiledModel::load(&mut corrupt.as_slice()).unwrap_err();
        assert!(
            matches!(err, Error::Artifact(ArtifactError::ChecksumMismatch { .. })),
            "fingerprint byte {i}: got {err}"
        );
        // …and a *checksum-consistent* stream whose header disagrees with
        // the network it actually encodes (a crafted or mis-paired
        // artifact) is caught by the fingerprint revalidation behind it.
        refresh_checksum(&mut corrupt);
        let err = CompiledModel::load(&mut corrupt.as_slice()).unwrap_err();
        assert!(
            matches!(err, Error::Artifact(ArtifactError::FingerprintMismatch { .. })),
            "fingerprint byte {i} (checksum fixed): got {err}"
        );
    }

    // Damaging the body — the encoded graph at its start, the weight
    // taps at its end — is rejected by the checksum; a flipped weight
    // byte must never serve silently wrong results.
    let body_start = 61; // fixed header: 8 magic + 4 + 8 + 8 + 1 + 16 + 8 + 8 checksum
    for ix in [body_start + 10, bytes.len() - 5] {
        let mut corrupt = bytes.clone();
        corrupt[ix] ^= 0xFF;
        let err = CompiledModel::load(&mut corrupt.as_slice()).unwrap_err();
        assert!(
            matches!(err, Error::Artifact(ArtifactError::ChecksumMismatch { .. })),
            "body byte {ix}: got {err}"
        );
    }
}

#[test]
fn truncated_streams_are_rejected_at_every_length() {
    let net = models::micro_mixed();
    let model = Compiler::new(CompileOptions::new().mixed_precision(true))
        .compile(&net, &Weights::random(&net, 3))
        .unwrap();
    let bytes = save_bytes(&model);
    // Every strict prefix must fail (sampled densely at the front where
    // the header fields live, sparsely across the body).
    let mut cuts: Vec<usize> = (0..64.min(bytes.len())).collect();
    cuts.extend((64..bytes.len()).step_by(97));
    cuts.push(bytes.len() - 1);
    for cut in cuts {
        let err = CompiledModel::load(&mut bytes[..cut].as_ref()).unwrap_err();
        assert!(
            matches!(err, Error::Artifact(_) | Error::Io(_)),
            "prefix {cut}: unexpected error {err}"
        );
    }
    // Trailing garbage is rejected too.
    let mut padded = bytes.clone();
    padded.extend_from_slice(b"extra");
    assert!(CompiledModel::load(&mut padded.as_slice()).is_err());
}

#[test]
fn random_single_byte_corruption_never_panics() {
    // Fuzz-lite: flip one random bit anywhere in the artifact. The
    // stream checksum covers every byte except itself, so corruption is
    // expected to fail cleanly — this test's job is proving it never
    // panics and never serves a broken model.
    let net = models::micro_mixed();
    let model = Compiler::new(CompileOptions::new().mixed_precision(true))
        .compile(&net, &Weights::random(&net, 4))
        .unwrap();
    let bytes = save_bytes(&model);
    let mut rng = SplitMix64::new(0xF1217);
    let (c, h, w) = net.infer_shapes().unwrap()[0];
    let input = Tensor::random(c, h, w, Layout::Chw, 9);
    for _ in 0..200 {
        let ix = (rng.next_u64() as usize) % bytes.len();
        let bit = 1u8 << (rng.next_u64() % 8);
        let mut corrupt = bytes.clone();
        corrupt[ix] ^= bit;
        if let Ok(loaded) = CompiledModel::load(&mut corrupt.as_slice()) {
            let mut session = loaded.engine().session();
            // A structurally intact model must still execute.
            session.infer_new(&input).expect("decoded model must serve");
        }
    }
}
