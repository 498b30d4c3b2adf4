//! Stable little-endian wire encoding for compiled-model artifacts.
//!
//! The front-door API ships PBQP solutions between machines as bytes
//! ("solve on the build host, serve on the edge"), so every type that
//! appears in an [`crate::Repr`]-aware execution plan needs an encoding
//! that is **stable across builds and platforms** — unlike `std`'s
//! `Hash`/`DefaultHasher`, which explicitly is not. This module provides
//! the primitive writers/readers (fixed-width little-endian integers,
//! IEEE-754 bit patterns, length-prefixed strings and slices) plus codecs
//! for the tensor-level vocabulary: [`Layout`], [`DType`], [`Repr`],
//! [`QuantParams`] and [`ReprTransform`].
//!
//! Higher layers (graph, plan, weights) build their own section encoders
//! on top of these primitives; the container format, versioning and
//! fingerprint validation live in the facade crate's artifact module.
//!
//! # Example
//!
//! ```
//! use pbqp_dnn_tensor::wire::{self, WireReader};
//! use pbqp_dnn_tensor::{Layout, Repr};
//!
//! let mut buf = Vec::new();
//! wire::put_repr(&mut buf, Repr::i8(Layout::Hwc));
//! wire::put_str(&mut buf, "qint8_im2col_chw");
//!
//! let mut r = WireReader::new(&buf);
//! assert_eq!(wire::get_repr(&mut r).unwrap(), Repr::i8(Layout::Hwc));
//! assert_eq!(r.str().unwrap(), "qint8_im2col_chw");
//! assert!(r.is_empty());
//! ```

use std::error::Error;
use std::fmt;

use crate::transform::{DirectTransform, ReprTransform, DIRECT_TRANSFORMS};
use crate::{DType, Layout, QuantParams, Repr};

/// Errors raised while decoding a wire stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The stream ended before the value being decoded was complete.
    Truncated,
    /// The bytes decoded to something outside the valid vocabulary
    /// (unknown tag, out-of-range index, unregistered transform pair…).
    Corrupt(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => f.write_str("wire stream truncated"),
            WireError::Corrupt(what) => write!(f, "corrupt wire stream: {what}"),
        }
    }
}

impl Error for WireError {}

// ---------------------------------------------------------------------
// Primitive writers.
// ---------------------------------------------------------------------

/// Appends one byte.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `usize` as a little-endian `u64` (sizes are
/// platform-independent on the wire).
pub fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

/// Appends an `f32` as its IEEE-754 bit pattern.
pub fn put_f32(out: &mut Vec<u8>, v: f32) {
    put_u32(out, v.to_bits());
}

/// Appends an `f64` as its IEEE-754 bit pattern.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Appends a little-endian `i32`.
pub fn put_i32(out: &mut Vec<u8>, v: i32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_usize(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

/// Appends a length-prefixed `f32` slice.
pub fn put_f32s(out: &mut Vec<u8>, vs: &[f32]) {
    put_usize(out, vs.len());
    for &v in vs {
        put_f32(out, v);
    }
}

/// Appends a length-prefixed `i8` slice.
pub fn put_i8s(out: &mut Vec<u8>, vs: &[i8]) {
    put_usize(out, vs.len());
    out.extend(vs.iter().map(|&v| v as u8));
}

/// Appends a length-prefixed `i32` slice.
pub fn put_i32s(out: &mut Vec<u8>, vs: &[i32]) {
    put_usize(out, vs.len());
    for &v in vs {
        put_i32(out, v);
    }
}

// ---------------------------------------------------------------------
// Reader.
// ---------------------------------------------------------------------

/// A cursor over an encoded byte slice; every accessor consumes from the
/// front and fails with [`WireError::Truncated`] past the end.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
}

impl<'a> WireReader<'a> {
    /// Wraps a byte slice for decoding.
    pub fn new(buf: &'a [u8]) -> WireReader<'a> {
        WireReader { buf }
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Consumes `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] when fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::Truncated);
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    /// Decodes one byte.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at end of stream.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Decodes a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at end of stream.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Decodes a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at end of stream.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Decodes a `usize` written by [`put_usize`].
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at end of stream; [`WireError::Corrupt`]
    /// when the value does not fit the platform's `usize`.
    pub fn usize(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.u64()?)
            .map_err(|_| WireError::Corrupt("size exceeds platform usize".into()))
    }

    /// Decodes a length written by [`put_usize`] that prefixes `elem_bytes`
    /// wide elements, verifying the stream can actually hold that many —
    /// so corrupt length fields fail cleanly instead of attempting huge
    /// allocations.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] when the remaining stream is shorter than
    /// the declared payload.
    pub fn len_prefix(&mut self, elem_bytes: usize) -> Result<usize, WireError> {
        let n = self.usize()?;
        if n.checked_mul(elem_bytes).is_none_or(|bytes| bytes > self.remaining()) {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }

    /// Decodes an `f32` bit pattern.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at end of stream.
    pub fn f32(&mut self) -> Result<f32, WireError> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Decodes an `f64` bit pattern.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at end of stream.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Decodes a little-endian `i32`.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at end of stream.
    pub fn i32(&mut self) -> Result<i32, WireError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Decodes a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at end of stream, [`WireError::Corrupt`]
    /// on invalid UTF-8.
    pub fn str(&mut self) -> Result<String, WireError> {
        let n = self.len_prefix(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Corrupt("string is not UTF-8".into()))
    }

    /// Decodes a length-prefixed `f32` slice (bulk path: weight payloads
    /// dominate artifact size, so this converts 4-byte chunks directly
    /// instead of going through per-element reads).
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at end of stream.
    pub fn f32s(&mut self) -> Result<Vec<f32>, WireError> {
        let n = self.len_prefix(4)?;
        let bytes = self.take(n * 4)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_bits(u32::from_le_bytes(c.try_into().expect("4 bytes"))))
            .collect())
    }

    /// Decodes a length-prefixed `i8` slice.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at end of stream.
    pub fn i8s(&mut self) -> Result<Vec<i8>, WireError> {
        let n = self.len_prefix(1)?;
        Ok(self.take(n)?.iter().map(|&b| b as i8).collect())
    }

    /// Decodes a length-prefixed `i32` slice.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at end of stream.
    pub fn i32s(&mut self) -> Result<Vec<i32>, WireError> {
        let n = self.len_prefix(4)?;
        let bytes = self.take(n * 4)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }
}

// ---------------------------------------------------------------------
// Tensor-vocabulary codecs.
// ---------------------------------------------------------------------

/// Encodes a [`Layout`] as its stable index in [`Layout::ALL`].
pub fn put_layout(out: &mut Vec<u8>, layout: Layout) {
    let code = Layout::ALL.iter().position(|&l| l == layout).expect("layout in ALL");
    put_u8(out, code as u8);
}

/// Decodes a [`Layout`] written by [`put_layout`].
///
/// # Errors
///
/// [`WireError::Corrupt`] on an out-of-range code.
pub fn get_layout(r: &mut WireReader<'_>) -> Result<Layout, WireError> {
    let code = r.u8()? as usize;
    Layout::ALL
        .get(code)
        .copied()
        .ok_or_else(|| WireError::Corrupt(format!("layout code {code} out of range")))
}

/// Encodes a [`DType`] (`F32 = 0`, `I8 = 1`, `I32 = 2`).
pub fn put_dtype(out: &mut Vec<u8>, dtype: DType) {
    put_u8(
        out,
        match dtype {
            DType::F32 => 0,
            DType::I8 => 1,
            DType::I32 => 2,
        },
    );
}

/// Decodes a [`DType`] written by [`put_dtype`].
///
/// # Errors
///
/// [`WireError::Corrupt`] on an unknown code.
pub fn get_dtype(r: &mut WireReader<'_>) -> Result<DType, WireError> {
    match r.u8()? {
        0 => Ok(DType::F32),
        1 => Ok(DType::I8),
        2 => Ok(DType::I32),
        code => Err(WireError::Corrupt(format!("dtype code {code} out of range"))),
    }
}

/// Encodes a [`Repr`] as its stable index in [`Repr::ALL`].
pub fn put_repr(out: &mut Vec<u8>, repr: Repr) {
    put_u8(out, repr.index() as u8);
}

/// Decodes a [`Repr`] written by [`put_repr`].
///
/// # Errors
///
/// [`WireError::Corrupt`] on an out-of-range code.
pub fn get_repr(r: &mut WireReader<'_>) -> Result<Repr, WireError> {
    let code = r.u8()? as usize;
    Repr::ALL
        .get(code)
        .copied()
        .ok_or_else(|| WireError::Corrupt(format!("repr code {code} out of range")))
}

/// Encodes [`QuantParams`] (scale bit pattern + zero point).
pub fn put_qparams(out: &mut Vec<u8>, p: QuantParams) {
    put_f32(out, p.scale);
    put_i32(out, p.zero_point);
}

/// Decodes [`QuantParams`] written by [`put_qparams`].
///
/// # Errors
///
/// [`WireError::Truncated`] at end of stream.
pub fn get_qparams(r: &mut WireReader<'_>) -> Result<QuantParams, WireError> {
    Ok(QuantParams { scale: r.f32()?, zero_point: r.i32()? })
}

/// Encodes one [`ReprTransform`] edge: a variant tag plus its layout
/// endpoints. Layout edges resolve back through [`DIRECT_TRANSFORMS`], so
/// only registered routines can round-trip.
pub fn put_repr_transform(out: &mut Vec<u8>, tr: ReprTransform) {
    match tr {
        ReprTransform::Layout(t) => {
            put_u8(out, 0);
            put_layout(out, t.from);
            put_layout(out, t.to);
        }
        ReprTransform::LayoutI8(t) => {
            put_u8(out, 1);
            put_layout(out, t.from);
            put_layout(out, t.to);
        }
        ReprTransform::Quantize(l) => {
            put_u8(out, 2);
            put_layout(out, l);
        }
        ReprTransform::Dequantize(l) => {
            put_u8(out, 3);
            put_layout(out, l);
        }
    }
}

fn direct_transform(from: Layout, to: Layout) -> Result<DirectTransform, WireError> {
    DIRECT_TRANSFORMS
        .iter()
        .find(|t| t.from == from && t.to == to)
        .copied()
        .ok_or_else(|| WireError::Corrupt(format!("no direct transform {from} -> {to}")))
}

/// Decodes a [`ReprTransform`] written by [`put_repr_transform`].
///
/// # Errors
///
/// [`WireError::Corrupt`] on unknown tags or unregistered layout pairs.
pub fn get_repr_transform(r: &mut WireReader<'_>) -> Result<ReprTransform, WireError> {
    match r.u8()? {
        0 => Ok(ReprTransform::Layout(direct_transform(get_layout(r)?, get_layout(r)?)?)),
        1 => Ok(ReprTransform::LayoutI8(direct_transform(get_layout(r)?, get_layout(r)?)?)),
        2 => Ok(ReprTransform::Quantize(get_layout(r)?)),
        3 => Ok(ReprTransform::Dequantize(get_layout(r)?)),
        tag => Err(WireError::Corrupt(format!("repr-transform tag {tag} out of range"))),
    }
}

/// Encodes a legalization chain (length-prefixed [`ReprTransform`] run).
pub fn put_chain(out: &mut Vec<u8>, chain: &[ReprTransform]) {
    put_usize(out, chain.len());
    for &hop in chain {
        put_repr_transform(out, hop);
    }
}

/// Decodes a chain written by [`put_chain`].
///
/// # Errors
///
/// Propagates element decode errors.
pub fn get_chain(r: &mut WireReader<'_>) -> Result<Vec<ReprTransform>, WireError> {
    let n = r.len_prefix(2)?;
    (0..n).map(|_| get_repr_transform(r)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::repr_transforms;

    #[test]
    fn primitive_values_round_trip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 3);
        put_usize(&mut buf, 123_456);
        put_f32(&mut buf, -1.5);
        put_f64(&mut buf, std::f64::consts::PI);
        put_i32(&mut buf, -42);
        put_str(&mut buf, "héllo");
        put_f32s(&mut buf, &[0.0, -0.0, f32::INFINITY]);
        put_i8s(&mut buf, &[-127, 0, 127]);
        put_i32s(&mut buf, &[i32::MIN, 9]);

        let mut r = WireReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.usize().unwrap(), 123_456);
        assert_eq!(r.f32().unwrap(), -1.5);
        assert_eq!(r.f64().unwrap(), std::f64::consts::PI);
        assert_eq!(r.i32().unwrap(), -42);
        assert_eq!(r.str().unwrap(), "héllo");
        let fs = r.f32s().unwrap();
        assert_eq!(fs[0].to_bits(), 0.0f32.to_bits());
        assert_eq!(fs[1].to_bits(), (-0.0f32).to_bits());
        assert_eq!(fs[2], f32::INFINITY);
        assert_eq!(r.i8s().unwrap(), vec![-127, 0, 127]);
        assert_eq!(r.i32s().unwrap(), vec![i32::MIN, 9]);
        assert!(r.is_empty());
    }

    #[test]
    fn vocabulary_codecs_cover_every_value() {
        let mut buf = Vec::new();
        for &l in &Layout::ALL {
            put_layout(&mut buf, l);
        }
        for d in [DType::F32, DType::I8, DType::I32] {
            put_dtype(&mut buf, d);
        }
        for &repr in &Repr::ALL {
            put_repr(&mut buf, repr);
        }
        put_qparams(&mut buf, QuantParams { scale: 0.031, zero_point: -5 });
        let edges = repr_transforms();
        put_chain(&mut buf, &edges);

        let mut r = WireReader::new(&buf);
        for &l in &Layout::ALL {
            assert_eq!(get_layout(&mut r).unwrap(), l);
        }
        for d in [DType::F32, DType::I8, DType::I32] {
            assert_eq!(get_dtype(&mut r).unwrap(), d);
        }
        for &repr in &Repr::ALL {
            assert_eq!(get_repr(&mut r).unwrap(), repr);
        }
        assert_eq!(get_qparams(&mut r).unwrap(), QuantParams { scale: 0.031, zero_point: -5 });
        assert_eq!(get_chain(&mut r).unwrap(), edges);
        assert!(r.is_empty());
    }

    #[test]
    fn truncation_and_garbage_are_rejected_not_panicked() {
        // Every prefix of a valid stream must fail cleanly.
        let mut buf = Vec::new();
        put_str(&mut buf, "primitive");
        put_chain(&mut buf, &repr_transforms());
        for cut in 0..buf.len() {
            let mut r = WireReader::new(&buf[..cut]);
            let a = r.str();
            let b = get_chain(&mut r);
            assert!(a.is_err() || b.is_err(), "prefix {cut} decoded fully");
        }
        // Out-of-range codes are corrupt, not panics.
        for code in [Layout::ALL.len() as u8, 200] {
            let bytes = [code];
            let mut r = WireReader::new(&bytes);
            assert!(matches!(get_layout(&mut r), Err(WireError::Corrupt(_))), "code {code}");
        }
        let mut r = WireReader::new(&[9]);
        assert!(matches!(get_dtype(&mut r), Err(WireError::Corrupt(_))));
        let mut r = WireReader::new(&[250]);
        assert!(matches!(get_repr(&mut r), Err(WireError::Corrupt(_))));
        // An unregistered layout pair cannot decode as a transform.
        let mut buf = Vec::new();
        put_u8(&mut buf, 0);
        put_layout(&mut buf, Layout::Chw8);
        put_layout(&mut buf, Layout::Hwc);
        let mut r = WireReader::new(&buf);
        assert!(matches!(get_repr_transform(&mut r), Err(WireError::Corrupt(_))));
        // A huge declared length fails as truncation, not as an OOM
        // allocation attempt.
        let mut buf = Vec::new();
        put_usize(&mut buf, u64::MAX as usize);
        let mut r = WireReader::new(&buf);
        assert_eq!(r.f32s(), Err(WireError::Truncated));
    }

    #[test]
    fn invalid_utf8_is_corrupt() {
        let mut buf = Vec::new();
        put_usize(&mut buf, 2);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        let mut r = WireReader::new(&buf);
        assert!(matches!(r.str(), Err(WireError::Corrupt(_))));
    }
}
