//! Property tests for the tensor substrate: layout round trips, storage
//! bijectivity, and direct-transform equivalence with the generic copy.
//!
//! The build environment has no crates.io access, so instead of proptest
//! each test derives its random cases from a fixed-seed splitmix64
//! generator — deterministic, but covering the same input space.

use pbqp_dnn_tensor::rng::SplitMix64;
use pbqp_dnn_tensor::transform::{apply_direct, DIRECT_TRANSFORMS};
use pbqp_dnn_tensor::{Layout, Tensor};

fn layout(rng: &mut SplitMix64) -> Layout {
    Layout::ALL[rng.usize(0, Layout::ALL.len())]
}

/// Converting to any layout and back preserves every element.
#[test]
fn to_layout_round_trips() {
    let mut rng = SplitMix64::new(1);
    for _ in 0..64 {
        let (c, h, w) = (rng.usize(1, 12), rng.usize(1, 12), rng.usize(1, 12));
        let (a, b) = (layout(&mut rng), layout(&mut rng));
        let t = Tensor::random(c, h, w, a, rng.next_u64());
        let back = t.to_layout(b).to_layout(a);
        assert_eq!(t.data(), back.data(), "{a} -> {b} -> {a}");
    }
}

/// `set` followed by `at` returns the stored value in every layout, and
/// touches exactly one storage slot.
#[test]
fn set_at_is_a_bijection_into_storage() {
    let mut rng = SplitMix64::new(2);
    for _ in 0..64 {
        let (c, h, w) = (rng.usize(1, 10), rng.usize(1, 10), rng.usize(1, 10));
        let layout = layout(&mut rng);
        let (ci, hi, wi) = (rng.usize(0, c), rng.usize(0, h), rng.usize(0, w));
        let mut t = Tensor::zeros(c, h, w, layout);
        t.set(ci, hi, wi, 7.5);
        assert_eq!(t.at(ci, hi, wi), 7.5);
        let nonzero = t.data().iter().filter(|&&v| v != 0.0).count();
        assert_eq!(nonzero, 1, "{layout} ({ci},{hi},{wi})");
    }
}

/// Every registered direct transform equals the generic permutation copy
/// on random tensors.
#[test]
fn direct_transforms_match_generic_copy() {
    let mut rng = SplitMix64::new(3);
    for _ in 0..64 {
        let (c, h, w) = (rng.usize(1, 10), rng.usize(1, 10), rng.usize(1, 10));
        let tr = DIRECT_TRANSFORMS[rng.usize(0, DIRECT_TRANSFORMS.len())];
        let src = Tensor::random(c, h, w, tr.from, rng.next_u64());
        let fast = apply_direct(&src, tr.to).unwrap();
        let slow = src.to_layout(tr.to);
        assert_eq!(fast.data(), slow.data(), "{}", tr.name);
    }
}

/// Relayout preserves every logical element exactly.
#[test]
fn relayout_preserves_every_element_exactly() {
    let mut rng = SplitMix64::new(4);
    for _ in 0..64 {
        let (c, h, w) = (rng.usize(1, 8), rng.usize(1, 8), rng.usize(1, 8));
        let (a, b) = (layout(&mut rng), layout(&mut rng));
        let t = Tensor::random(c, h, w, a, rng.next_u64());
        let u = t.to_layout(b);
        assert_eq!(t.max_abs_diff(&u).unwrap(), 0.0);
    }
}
