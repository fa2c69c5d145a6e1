//! The hot loops, compiled twice: for the build's baseline target and, on
//! x86-64, for AVX2, chosen at run time.
//!
//! Each kernel is one `#[inline(always)]` body — the loops of
//! [`tensor`](crate::tensor)'s products and of `feddrl_fl::strategy`'s
//! aggregation sweep, every float operation in the order their contracts
//! pin — and a dispatcher stamped by `dispatched!`. The dispatcher owns a
//! `#[target_feature(enable = "avx2")]` function that does nothing but call
//! the body: LLVM inlines the body into it and vectorises the copy at eight
//! lanes instead of four. A wider `mulps`/`addps` is the same rounded
//! multiply and the same rounded add per element, and `rustc` never
//! contracts `a * b + c` into a fused multiply-add, so both copies produce
//! the same bits (`fedbench --verify`, the golden fixtures and the laws in
//! `tests/nn_props.rs` and `tests/aggregate_props.rs` run both). On a CPU
//! without AVX2, and on every other architecture, the body itself runs:
//! the parent's code at the parent's speed.
//!
//! **Why this module allows `unsafe`.** Calling a `target_feature` function
//! from code compiled without the feature is `unsafe` in Rust — on a CPU
//! that lacks it the call is an illegal instruction — and there is no safe
//! spelling. The workspace denies `unsafe_code`; this module is the one
//! exception, and the macro below holds its one `unsafe` block: a single
//! call, directly under the `is_x86_feature_detected!` that makes it sound.
//! The bodies are safe code.
//!
//! A closure-taking helper (`wide(|| body(..))`) does not work: the body is
//! inlined into the closure, which has no AVX2 and is not itself inlined
//! into the wrapper (measured: no gain). Hence one named wrapper per body.

#![allow(unsafe_code)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Set while `with_instantiation` pins the baseline bodies. It publishes
/// no other data, so every access is `Relaxed`; threads spawned under the
/// pin see it through the spawn.
static BASELINE_PINNED: AtomicBool = AtomicBool::new(false);

/// Run `f` with every dispatcher of this module pinned to the baseline body
/// (`baseline`) or left to the CPU. Calls are serialised process-wide —
/// tests of one binary run on parallel threads — so they must not nest; the
/// pin covers threads `f` spawns.
fn with_instantiation<R>(baseline: bool, f: impl FnOnce() -> R) -> R {
    static PIN: Mutex<()> = Mutex::new(());
    struct Unpin;
    impl Drop for Unpin {
        fn drop(&mut self) {
            BASELINE_PINNED.store(false, Ordering::Relaxed);
        }
    }
    // A law that failed under the pin poisons the lock; the flag it guards
    // was reset by `Unpin`, so the next law may proceed.
    let _serial = PIN.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let _unpin = Unpin;
    BASELINE_PINNED.store(baseline, Ordering::Relaxed);
    f()
}

/// Test seam: run `law` twice — on the kernels as the CPU dispatches them
/// (`"dispatched"`) and pinned to the baseline bodies (`"baseline"`) — so a
/// box with AVX2 checks both instantiations against the same reference
/// instead of only ever running one. The name is for the law's messages.
#[doc(hidden)]
pub fn for_each_instantiation(mut law: impl FnMut(&'static str)) {
    with_instantiation(false, || law("dispatched"));
    with_instantiation(true, || law("baseline"));
}

/// Stamp a dispatcher for `$body`: same signature, AVX2 copy where the CPU
/// has it, the body itself otherwise. `= $body, avx2: $wide;` gives the
/// AVX2 copy a body of its own: a tile whose accumulators fit the sixteen
/// AVX registers and would spill the sixteen SSE ones.
macro_rules! dispatched {
    (
        $(#[$attr:meta])*
        $vis:vis fn $name:ident $(<const $flag:ident: bool>)? ($($arg:ident: $ty:ty),* $(,)?) = $body:ident;
    ) => {
        dispatched! {
            $(#[$attr])*
            $vis fn $name $(<const $flag: bool>)? ($($arg: $ty),*) = $body, avx2: $body;
        }
    };
    (
        $(#[$attr:meta])*
        $vis:vis fn $name:ident $(<const $flag:ident: bool>)? ($($arg:ident: $ty:ty),* $(,)?) = $body:ident, avx2: $wide:ident;
    ) => {
        $(#[$attr])*
        $vis fn $name $(<const $flag: bool>)? ($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx2")]
                unsafe fn avx2 $(<const $flag: bool>)? ($($arg: $ty),*) {
                    $wide $(::<$flag>)? ($($arg),*)
                }
                if is_x86_feature_detected!("avx2") && !BASELINE_PINNED.load(Ordering::Relaxed) {
                    // SAFETY: `avx2` requires only that the CPU supports
                    // AVX2, which the detection on the line above found.
                    return unsafe { avx2 $(::<$flag>)? ($($arg),*) };
                }
            }
            $body $(::<$flag>)? ($($arg),*)
        }
    };
}

// ---------------------------------------------------------------------------
// Products (contract: `tensor` module doc)
// ---------------------------------------------------------------------------

/// Output columns the row kernel accumulates in registers at once for each
/// row: eight four-lane SSE registers — leaving the other eight for the
/// broadcast left factor and the loads — or four eight-lane AVX registers.
///
/// One width for both instantiations; the tile height differs. The AVX2
/// copy runs two rows per pass: eight accumulators hide the add latency
/// as a 64-column block once did, and each load of `b` feeds both rows.
/// The baseline keeps one row, because a pair needs sixteen four-lane
/// accumulators and they spill. µs, one row / row pair, one thread, median
/// of 25 in the calmest of three alternating runs, and the pair's time as
/// a share of one row's in each of the three:
///
/// | product | AVX2 | pair / row | baseline | pair / row |
/// |---|---|---|---|---|
/// | `10×64·64×128` | 6.0 / 5.4 | 0.80–0.92 | 9.4 / 13.6 | 1.37–1.45 |
/// | `10×128·128×100` | 9.4 / 8.6 | 0.87–0.91 | 14.4 / 17.0 | 1.18–1.35 |
/// | `10×64ᵀ·10×128` | 4.4 / 4.4 | 0.95–1.00 | 7.4 / 9.9 | 1.32–1.34 |
/// | `10×128ᵀ·10×100` | 10.7 / 10.5 | 0.92–0.98 | 15.5 / 19.8 | 1.27–1.29 |
/// | `10×100·(128×100)ᵀ` | 16.7 / 13.6 | 0.81–0.86 | 18.2 / 19.2 | 1.05–1.22 |
/// | `64×64·64×128` | 35.9 / 31.7 | 0.88–0.92 | 52.1 / 61.8 | 1.19–1.42 |
/// | `256×64·64×128` | 122 / 100 | 0.81–0.88 | 190 / 251 | 1.32–1.43 |
/// | `64×48·48×256` | 45.1 / 42.2 | 0.89–0.94 | 78.6 / 97.4 | 1.24–1.30 |
/// | `64×80·80×256` | 116 / 62.9 | 0.54–0.65 | 124 / 169 | 1.26–1.36 |
/// | `64×256·256×256` | 365 / 225 | 0.62–0.73 | 370 / 470 | 1.26–1.36 |
/// | `64×80ᵀ·64×256` | 120 / 71.3 | 0.59–0.65 | 126 / 152 | 1.21–1.34 |
/// | `64×256ᵀ·64×256` | 331 / 318 | 0.93–0.96 | 570 / 711 | 1.25–1.34 |
/// | `64×256·(256×256)ᵀ` | 338 / 274 | 0.75–0.81 | 538 / 723 | 1.12–1.34 |
/// | `32×1024·1024×512` (packed) | 1 679 / 1 259 | 0.75–0.86 | 2 036 / 2 584 | 1.27–1.31 |
/// | `32×2048·2048×1024` (packed) | 8 742 / 7 193 | 0.82–0.83 | 10 951 / 12 822 | 1.17–1.37 |
///
/// The 2²²-multiply-add products run on two threads in the programs
/// (`PAR_MATMUL_FLOPS`); one thread isolates the kernel. Outputs narrower
/// than one block (`n` of 1 to 16, all tail panel) move with where the
/// loop lands in the binary: the AVX2 pair took 0.84–1.4× one row's time
/// there across the harness builds measured.
pub(crate) const COL_BLOCK: usize = 32;

/// Largest right-hand matrix, in elements (1 MiB), whose full column blocks
/// are read in place. A block pass strides through `b` one row per step,
/// which is only cheap while `b` stays in the 2 MiB L2; a larger `b` is
/// copied one 32-column panel at a time into a contiguous `k × 32` buffer
/// that every row of the band then runs over. In place / packed, µs, one
/// thread, range of three runs:
///
/// | product | `b` | AVX2 | baseline |
/// |---|---|---|---|
/// | `32×784·784×200` | 0.6 MiB | 581–609 / 470–515 | 515–808 / 761–814 |
/// | `32×512·512×512` | 1 MiB | 916–1 116 / 602–843 | 955–1 404 / 1 231–1 358 |
/// | `32×1024·1024×512` | 2 MiB | 3 908–4 443 / 1 726–1 930 | 4 733–5 523 / 1 761–2 898 |
/// | `32×2048·2048×1024` | 8 MiB | 35 136–37 930 / 8 481–10 440 | 40 217–51 469 / 11 335–12 502 |
///
/// (One row per pass; under AVX2 the packed panels now run row pairs, the
/// last two rows of the table beside `COL_BLOCK`.) The loop packing
/// replaced, which added a whole row of `b` into the
/// output row per `k`, took 15.4–16.4 ms (AVX2) and 18.2–20.0 ms
/// (baseline) on the 8 MiB product. Packing pays for its
/// copy only when enough rows reuse a panel, and the training products
/// have ten, so the budget stays where the in-place walk falls off. Two
/// other shapes were measured and dropped: walking an 8 MiB `b` block by
/// block *in place*, rows inner, took 3.2× as long as packing it
/// (7.7 → 24.6 ms); and `chunks` instead of `chunks_exact` over `b`'s rows
/// cost 10–20 % on full-block products.
#[doc(hidden)]
pub const MAX_BLOCKED_RHS: usize = 1 << 18;

/// Lanes the zero-padded tail panel is rounded up to: one AVX register,
/// two SSE ones.
const TAIL_LANES: usize = 8;

/// `W` outputs of `a_row × b`, columns `c0..c0 + W` of a row-major `b`
/// whose rows are `stride` apart, held in registers across the whole `k`
/// loop. Sums each output in `k` order from `+0.0`; `SKIP_ZERO` drops the
/// terms whose left factor is zero.
#[inline(always)]
fn block<const SKIP_ZERO: bool, const W: usize>(
    a_row: &[f32],
    b: &[f32],
    stride: usize,
    c0: usize,
) -> [f32; W] {
    let mut acc = [0.0f32; W];
    for (&a_v, b_row) in a_row.iter().zip(b.chunks_exact(stride)) {
        if SKIP_ZERO && a_v == 0.0 {
            continue;
        }
        for (o, &b_v) in acc.iter_mut().zip(&b_row[c0..c0 + W]) {
            *o += a_v * b_v;
        }
    }
    acc
}

/// [`block`] for two rows of `a` at once: each load of `b` feeds both
/// rows' accumulators. Every output is still its own `+0.0`-started sum in
/// `k` order, and each row decides its zero skip alone.
#[inline(always)]
fn block_pair<const SKIP_ZERO: bool, const W: usize>(
    (a0, a1): (&[f32], &[f32]),
    b: &[f32],
    stride: usize,
    c0: usize,
) -> [[f32; W]; 2] {
    let (mut acc0, mut acc1) = ([0.0f32; W], [0.0f32; W]);
    for ((&v0, &v1), b_row) in a0.iter().zip(a1).zip(b.chunks_exact(stride)) {
        // Loaded ahead of either row's skip test, so both rows use one
        // load; loads inside the branches are made twice.
        let b_block: [f32; W] = b_row[c0..c0 + W].try_into().unwrap();
        if !(SKIP_ZERO && v0 == 0.0) {
            for (o, &b_v) in acc0.iter_mut().zip(&b_block) {
                *o += v0 * b_v;
            }
        }
        if !(SKIP_ZERO && v1 == 0.0) {
            for (o, &b_v) in acc1.iter_mut().zip(&b_block) {
                *o += v1 * b_v;
            }
        }
    }
    [acc0, acc1]
}

/// One tile of output rows — two where `PAIR` and the band has them, else
/// one — over a `W`-column block of `b` at `c0` (rows `stride` apart):
/// their outputs `out_c0..out_c0 + cols` (`cols ≤ W`; the rest of the
/// block is dropped). `a_tile` holds the tile's rows of `a`, `k` long, and
/// `out_tile` theirs of the output, `n` long.
#[inline(always)]
fn tile<const SKIP_ZERO: bool, const W: usize, const PAIR: bool>(
    (a_tile, k): (&[f32], usize),
    (b, stride, c0): (&[f32], usize, usize),
    (out_tile, n): (&mut [f32], usize),
    (out_c0, cols): (usize, usize),
) {
    if PAIR && a_tile.len() == 2 * k {
        let [acc0, acc1] = block_pair::<SKIP_ZERO, W>(a_tile.split_at(k), b, stride, c0);
        let (out0, out1) = out_tile.split_at_mut(n);
        out0[out_c0..out_c0 + cols].copy_from_slice(&acc0[..cols]);
        out1[out_c0..out_c0 + cols].copy_from_slice(&acc1[..cols]);
    } else {
        let acc = block::<SKIP_ZERO, W>(a_tile, b, stride, c0);
        out_tile[out_c0..out_c0 + cols].copy_from_slice(&acc[..cols]);
    }
}

/// Columns `c0..` of the row-major `b` (`n` columns), as many as fit, into
/// the rows of `panel`, `width` apart. Lanes past `n` keep what they hold.
#[inline(always)]
fn pack(b: &[f32], n: usize, c0: usize, panel: &mut [f32], width: usize) {
    let cols = width.min(n - c0);
    for (dst, src) in panel.chunks_exact_mut(width).zip(b.chunks_exact(n)) {
        dst[..cols].copy_from_slice(&src[c0..c0 + cols]);
    }
}

/// Every row of the band over one packed `k × W` panel, in tiles of two
/// where `PAIR`: output columns `c0..`, as many as the panel holds before
/// `n`; a padded lane is computed and dropped.
#[inline(always)]
fn panel_rows<const SKIP_ZERO: bool, const W: usize, const PAIR: bool>(
    a_rows: &[f32],
    panel: &[f32],
    k: usize,
    n: usize,
    c0: usize,
    out_rows: &mut [f32],
) {
    let height = if PAIR { 2 } else { 1 };
    let cols = W.min(n - c0);
    for (a_tile, out_tile) in a_rows
        .chunks(height * k)
        .zip(out_rows.chunks_mut(height * n))
    {
        tile::<SKIP_ZERO, W, PAIR>((a_tile, k), (panel, W, 0), (out_tile, n), (c0, cols));
    }
}

/// The product band, in row tiles of two where `PAIR` (an odd last row
/// alone): over `b` in place or over its packed panels, then over the
/// zero-padded tail panel.
#[inline(always)]
fn product_tiles<const SKIP_ZERO: bool, const PAIR: bool>(
    a_rows: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    out_rows: &mut [f32],
) {
    let full = n - n % COL_BLOCK;
    if b.len() <= MAX_BLOCKED_RHS {
        let height = if PAIR { 2 } else { 1 };
        for (a_tile, out_tile) in a_rows
            .chunks(height * k)
            .zip(out_rows.chunks_mut(height * n))
        {
            for c0 in (0..full).step_by(COL_BLOCK) {
                tile::<SKIP_ZERO, COL_BLOCK, PAIR>(
                    (a_tile, k),
                    (b, n, c0),
                    (&mut *out_tile, n),
                    (c0, COL_BLOCK),
                );
            }
        }
    } else if full > 0 {
        let mut panel = vec![0.0f32; k * COL_BLOCK];
        for c0 in (0..full).step_by(COL_BLOCK) {
            pack(b, n, c0, &mut panel, COL_BLOCK);
            panel_rows::<SKIP_ZERO, COL_BLOCK, PAIR>(a_rows, &panel, k, n, c0, out_rows);
        }
    }
    if full == n {
        return;
    }
    // The tail, zero-padded to whole lanes: a zero right factor adds `±0.0`
    // (or `NaN`, against a non-finite left one) only to a dropped lane.
    let width = (n - full).next_multiple_of(TAIL_LANES);
    let mut panel = vec![0.0f32; k * width];
    pack(b, n, full, &mut panel, width);
    // Called by name, not through a pointer: each arm must inline into the
    // AVX2 copy.
    match width {
        8 => panel_rows::<SKIP_ZERO, 8, PAIR>(a_rows, &panel, k, n, full, out_rows),
        16 => panel_rows::<SKIP_ZERO, 16, PAIR>(a_rows, &panel, k, n, full, out_rows),
        24 => panel_rows::<SKIP_ZERO, 24, PAIR>(a_rows, &panel, k, n, full, out_rows),
        _ => panel_rows::<SKIP_ZERO, COL_BLOCK, PAIR>(a_rows, &panel, k, n, full, out_rows),
    }
}

/// One row per tile: a row pair's sixteen four-lane accumulators would
/// spill the sixteen SSE registers.
#[inline(always)]
fn product_rows_body<const SKIP_ZERO: bool>(
    a_rows: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    out_rows: &mut [f32],
) {
    product_tiles::<SKIP_ZERO, false>(a_rows, b, k, n, out_rows)
}

/// Row pairs: eight eight-lane accumulators, four loads of `b` per `k`
/// shared by both rows.
#[inline(always)]
fn product_row_pairs_body<const SKIP_ZERO: bool>(
    a_rows: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    out_rows: &mut [f32],
) {
    product_tiles::<SKIP_ZERO, true>(a_rows, b, k, n, out_rows)
}

dispatched! {
    /// A band of `[rows, k] × [k, n]`: `out_rows`, zeroed, receives
    /// `a_rows × b`. `k` and `n` are positive.
    pub(crate) fn product_rows<const SKIP_ZERO: bool>(
        a_rows: &[f32],
        b: &[f32],
        k: usize,
        n: usize,
        out_rows: &mut [f32],
    ) = product_rows_body, avx2: product_row_pairs_body;
}

// ---------------------------------------------------------------------------
// Aggregation sweep (contract: `feddrl_fl::strategy` module doc). The slices
// of one call are one block of the sweep and equally long; a kernel stops at
// the shortest.
// ---------------------------------------------------------------------------

#[inline(always)]
fn add_scaled_body(out: &mut [f32], a: f32, w: &[f32]) {
    for (o, &v) in out.iter_mut().zip(w) {
        *o += a * v;
    }
}

#[inline(always)]
fn add_vote_body(num: &mut [f32], mass: &mut [f32], a: f32, w: &[f32], keep: Option<&[bool]>) {
    let terms = num.iter_mut().zip(mass.iter_mut()).zip(w);
    match keep {
        None => {
            for ((n, m), &v) in terms {
                *n += a * v;
                *m += a;
            }
        }
        // Selects, not a branch around the adds: with every store
        // unconditional the loop vectorises, and a dropped position's
        // product never reaches the sums, whatever its weight holds.
        Some(keep) => {
            for (((n, m), &v), &k) in terms.zip(keep) {
                *n = if k { *n + a * v } else { *n };
                *m = if k { *m + a } else { *m };
            }
        }
    }
}

#[inline(always)]
fn settle_votes_body(num: &mut [f32], mass: &[f32], global: &[f32]) {
    for ((n, &m), &g) in num.iter_mut().zip(mass).zip(global) {
        *n = if m > 0.0 { *n / m } else { g };
    }
}

dispatched! {
    /// `out[p] += a · w[p]`, one rounded multiply and one rounded add each.
    pub fn add_scaled(out: &mut [f32], a: f32, w: &[f32]) = add_scaled_body;
}

dispatched! {
    /// One client's vote in a mask-aware average: `num[p] += a · w[p]` and
    /// `mass[p] += a` at every position `keep` keeps (all of them for
    /// `None`); a dropped position's weight never reaches `num`.
    pub fn add_vote(
        num: &mut [f32],
        mass: &mut [f32],
        a: f32,
        w: &[f32],
        keep: Option<&[bool]>,
    ) = add_vote_body;
}

dispatched! {
    /// Finish a mask-aware average: `num[p] / mass[p]` where some client
    /// voted (`mass[p] > 0`), `global[p]` elsewhere, written over `num`.
    pub fn settle_votes(num: &mut [f32], mass: &[f32], global: &[f32]) = settle_votes_body;
}

// ---------------------------------------------------------------------------
// A training step's elementwise passes: per element, the expression each
// dispatcher states, rounded as written.
// ---------------------------------------------------------------------------

#[inline(always)]
fn add_assign_body(out: &mut [f32], x: &[f32]) {
    for (o, &v) in out.iter_mut().zip(x) {
        *o += v;
    }
}

#[inline(always)]
fn sgd_update_body(p: &mut [f32], g: &[f32], lr: f32, scale: f32, decay: f32) {
    for (pv, &gv) in p.iter_mut().zip(g) {
        *pv -= lr * (scale * gv + decay * *pv);
    }
}

dispatched! {
    /// `out[i] += x[i]`, up to the shorter slice.
    pub(crate) fn add_assign(out: &mut [f32], x: &[f32]) = add_assign_body;
}

dispatched! {
    /// One SGD update, `p[i] -= lr · (scale · g[i] + decay · p[i])`, up to
    /// the shorter slice.
    pub(crate) fn sgd_update(p: &mut [f32], g: &[f32], lr: f32, scale: f32, decay: f32) = sgd_update_body;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// [`bits`] with every `NaN` made one: a payload is not part of the
    /// contract.
    fn bits_nan_as_one(v: &[f32]) -> Vec<u32> {
        v.iter()
            .map(|&x| if x.is_nan() { f32::NAN } else { x }.to_bits())
            .collect()
    }

    /// What `kernel` returns as dispatched and pinned to the baseline body.
    fn both<R>(mut kernel: impl FnMut() -> R) -> Vec<R> {
        let mut results = Vec::new();
        for_each_instantiation(|_| results.push(kernel()));
        results
    }

    #[test]
    fn the_pin_holds_inside_and_is_gone_after() {
        with_instantiation(true, || assert!(BASELINE_PINNED.load(Ordering::Relaxed)));
        // Another test may hold the pin right now; taking it waits for that.
        with_instantiation(false, || assert!(!BASELINE_PINNED.load(Ordering::Relaxed)));
    }

    /// A step's two elementwise passes are their scalar loops bit for bit in
    /// both instantiations, for every length around one and two vectors of
    /// either width, with a non-finite entry on each side and a decay of
    /// zero (where `0 · ∞` must still reach the parameter).
    #[test]
    fn step_passes_match_their_scalar_loops() {
        let mut rng = Rng64::new(34);
        for len in (0..=19).chain([31, 32, 33, 100]) {
            let mut p: Vec<f32> = (0..len).map(|_| rng.normal_f32(0.0, 1.0)).collect();
            let mut g: Vec<f32> = (0..len).map(|_| rng.normal_f32(0.0, 1.0)).collect();
            if len > 3 {
                (p[1], g[2]) = (f32::INFINITY, f32::NAN);
            }
            let want: Vec<f32> = p.iter().zip(&g).map(|(&o, &v)| o + v).collect();
            for got in both(|| {
                let mut out = p.clone();
                add_assign(&mut out, &g);
                out
            }) {
                let (got, want) = (bits_nan_as_one(&got), bits_nan_as_one(&want));
                assert_eq!(got, want, "add_assign, len {len}");
            }
            for (lr, scale, decay) in [(0.01, 1.0, 0.0), (1e-3, -1.0, 5e-4)] {
                let mut want = p.clone();
                for (pv, &gv) in want.iter_mut().zip(&g) {
                    *pv -= lr * (scale * gv + decay * *pv);
                }
                for got in both(|| {
                    let mut out = p.clone();
                    sgd_update(&mut out, &g, lr, scale, decay);
                    out
                }) {
                    let (got, want) = (bits_nan_as_one(&got), bits_nan_as_one(&want));
                    assert_eq!(got, want, "sgd_update, len {len}, decay {decay}");
                }
            }
        }
    }

    /// The three sweep kernels are their per-element statements bit for bit
    /// in both instantiations, for every length around one and two vectors
    /// of either width, with `-0.0` sums and a non-finite weight behind a
    /// dropped position.
    #[test]
    fn sweep_kernels_match_their_per_element_statements() {
        let mut rng = Rng64::new(24);
        for len in (0..=19).chain([31, 32, 33, 100]) {
            let w: Vec<f32> = (0..len).map(|_| rng.normal_f32(0.0, 1.0)).collect();
            let prior: Vec<f32> = (0..len)
                .map(|i| {
                    if i % 5 == 0 {
                        -0.0
                    } else {
                        rng.normal_f32(0.0, 1.0)
                    }
                })
                .collect();
            let a = rng.uniform(0.01, 1.0);

            let want: Vec<f32> = prior.iter().zip(&w).map(|(&o, &v)| o + a * v).collect();
            for got in both(|| {
                let mut out = prior.clone();
                add_scaled(&mut out, a, &w);
                out
            }) {
                assert_eq!(bits(&got), bits(&want), "add_scaled, len {len}");
            }

            let keep: Vec<bool> = (0..len).map(|_| rng.below(8) < 5).collect();
            let mut poisoned = w.clone();
            for (v, &k) in poisoned.iter_mut().zip(&keep) {
                if !k {
                    *v = if rng.below(2) == 0 {
                        f32::NAN
                    } else {
                        f32::INFINITY
                    };
                }
            }
            for keep in [None, Some(keep.as_slice())] {
                let w = if keep.is_some() { &poisoned } else { &w };
                let kept = |p: usize| keep.is_none_or(|k| k[p]);
                let want_num: Vec<f32> = (0..len)
                    .map(|p| {
                        if kept(p) {
                            prior[p] + a * w[p]
                        } else {
                            prior[p]
                        }
                    })
                    .collect();
                let want_mass: Vec<f32> = (0..len)
                    .map(|p| if kept(p) { prior[p] + a } else { prior[p] })
                    .collect();
                for (num, mass) in both(|| {
                    let (mut num, mut mass) = (prior.clone(), prior.clone());
                    add_vote(&mut num, &mut mass, a, w, keep);
                    (num, mass)
                }) {
                    assert_eq!(bits(&num), bits(&want_num), "add_vote num, len {len}");
                    assert_eq!(bits(&mass), bits(&want_mass), "add_vote mass, len {len}");
                }
            }

            let mass: Vec<f32> = (0..len)
                .map(|i| {
                    if i % 3 == 0 {
                        0.0
                    } else {
                        rng.uniform(0.1, 1.0)
                    }
                })
                .collect();
            let want: Vec<f32> = (0..len)
                .map(|p| {
                    if mass[p] > 0.0 {
                        w[p] / mass[p]
                    } else {
                        prior[p]
                    }
                })
                .collect();
            for got in both(|| {
                let mut num = w.clone();
                settle_votes(&mut num, &mass, &prior);
                num
            }) {
                assert_eq!(bits(&got), bits(&want), "settle_votes, len {len}");
            }
        }
    }
}
