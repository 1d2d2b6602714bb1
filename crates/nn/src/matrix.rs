//! Row-major `f32` matrices sized for small dense networks.
//!
//! The TTP and Pensieve policy networks are at most a few hundred units wide,
//! but the batched RCT day loop feeds them `(streams · rungs)`-row batches —
//! hundreds of rows per forward pass — and the nightly retrain runs 64-row
//! minibatches through the same layers forwards and backwards, so the matmul
//! family dispatches over a small kernel hierarchy at runtime:
//!
//! * [`Tier::Avx2Fma`] — shape-aware: ragged column counts (the TTP's
//!   21-wide output layer) go to a register-blocked 4×16 microkernel — four
//!   output rows × two YMM accumulators each (8 live accumulators), every
//!   `B` row chunk loaded once and fused-multiply-added into all four rows,
//!   with an AVX2 *masked* column tail instead of the row kernel's scalar
//!   one; whole-8-lane column counts stay on the row-at-a-time kernel,
//!   whose 64-wide tile already runs near FMA peak when `B` is L1-resident.
//! * [`Tier::Avx`] — the row-at-a-time 8-lane FMA kernel (AVX + FMA without
//!   AVX2: the Piledriver/Ivy-Bridge-era hardware class).
//! * [`Tier::Scalar`] — portable `f32::mul_add` loops; also what Miri
//!   interprets unless CI enables the vector features at compile time.
//!
//! All tiers are **bit-identical**: every output element sees exactly one
//! *fused* multiply-add per accumulation step (`f32::mul_add` and the
//! hardware `vfmadd` are both the correctly-rounded IEEE 754 fusedMultiplyAdd,
//! so they agree to the last bit), starting from `+0` in ascending-`k` order.
//! The vector kernels never reduce *across* lanes: each of the 8 lanes of a
//! register is a different output column carrying its own sequential chain,
//! so register blocking only changes *which* elements are in flight
//! together, never any element's own operation sequence.  CPUs with AVX but
//! no FMA fall back to [`Tier::Scalar`] — a non-fused vector path (separate
//! multiply and add roundings) could not stay bit-identical to the fused
//! tiers.
//!
//! The forward product `x·W` ([`Matrix::matmul_into`]) skips the `k` steps
//! whose left operand is zero — common after ReLU — on every tier.  The
//! backprop product `dy·Wᵀ` ([`Matrix::matmul_t_into`]) has no zero skip:
//! its scalar tier is a plain dot product per element, and `fma(0, b, acc)`
//! differs from skipping it when `b` is infinite or NaN, or when `acc` is
//! `-0`.  Its vector tiers transpose `W` into a caller-owned buffer and run
//! the same column-lane kernels as the forward product with the skip
//! compiled out, which reproduces the scalar dot product bit for bit.
//!
//! Feature detection runs once per process and is cached in a [`OnceLock`]
//! ([`cpu_features`]); the per-call cost of [`Tier::detect`] is two relaxed
//! atomic loads, cheap enough for every kernel entry point to re-read it.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Runtime-detected SIMD capabilities, detected once and cached for the
/// lifetime of the process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuFeatures {
    pub avx: bool,
    pub avx2: bool,
    pub fma: bool,
}

static CPU_FEATURES: OnceLock<CpuFeatures> = OnceLock::new();

/// The process-wide cached CPU feature set (one `OnceLock` load per call —
/// detection itself runs exactly once).
pub fn cpu_features() -> CpuFeatures {
    *CPU_FEATURES.get_or_init(detect_features)
}

fn detect_features() -> CpuFeatures {
    // Miri cannot execute `cpuid`; report the *compile-time* target features
    // instead, so `cargo miri test` with
    // `RUSTFLAGS="-C target-feature=+avx2,+fma"` interprets the real vector
    // kernels (the CI Miri job does exactly this) while a plain Miri run
    // interprets the portable scalar tier.
    if cfg!(miri) {
        return CpuFeatures {
            avx: cfg!(target_feature = "avx"),
            avx2: cfg!(target_feature = "avx2"),
            fma: cfg!(target_feature = "fma"),
        };
    }
    #[cfg(target_arch = "x86_64")]
    {
        CpuFeatures {
            avx: std::arch::is_x86_feature_detected!("avx"),
            avx2: std::arch::is_x86_feature_detected!("avx2"),
            fma: std::arch::is_x86_feature_detected!("fma"),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    CpuFeatures::default()
}

/// Kernel dispatch tier.  All tiers produce bit-identical results (module
/// docs); the tier only decides how fast they arrive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Tier {
    /// Portable `f32::mul_add` loops — correct everywhere, and the only
    /// tier on x86-64 without FMA (a fused scalar op is required to match
    /// the vector tiers bitwise).
    Scalar = 0,
    /// Row-at-a-time 8-lane AVX kernels using FMA (requires AVX *and* FMA).
    Avx = 1,
    /// The 4×16 register-blocked microkernel with masked column tails for
    /// ragged column counts; whole-8-lane shapes use the row kernel, which
    /// is already load-bound-free there (requires AVX2 and FMA).
    Avx2Fma = 2,
}

/// Test/bench override for [`Tier::detect`]: 0 = auto, else `tier as u8 + 1`.
static TIER_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Force every auto-dispatched kernel onto one tier (`None` restores runtime
/// detection).  For tests and benches that pin cross-tier bit-identity at
/// the experiment level.  Forcing any supported tier is unobservable in
/// results — the tiers are bit-identical — so a concurrently running test
/// can only be made slower, never wrong.
///
/// # Panics
/// Panics if the CPU does not support `tier` (running an AVX2 kernel on a
/// CPU without AVX2 would be undefined behaviour, so it is refused here).
pub fn force_tier(tier: Option<Tier>) {
    let v = match tier {
        None => 0,
        Some(t) => {
            assert!(t.supported(), "cannot force unsupported kernel tier {t:?}");
            t as u8 + 1
        }
    };
    // lint: atomic-ordering — standalone flag, no other data published with it
    TIER_OVERRIDE.store(v, Ordering::Relaxed);
}

impl Tier {
    /// Every tier, slowest first.
    pub const ALL: [Tier; 3] = [Tier::Scalar, Tier::Avx, Tier::Avx2Fma];

    /// The best tier this CPU supports (cached detection), unless a test
    /// override ([`force_tier`]) is active.
    #[inline]
    pub fn detect() -> Tier {
        // lint: atomic-ordering — reads only the flag itself; stale reads are benign
        match TIER_OVERRIDE.load(Ordering::Relaxed) {
            1 => Tier::Scalar,
            2 => Tier::Avx,
            3 => Tier::Avx2Fma,
            _ => {
                let f = cpu_features();
                if f.avx2 && f.fma {
                    Tier::Avx2Fma
                } else if f.avx && f.fma {
                    Tier::Avx
                } else {
                    Tier::Scalar
                }
            }
        }
    }

    /// Whether this CPU can run this tier's kernels.
    pub fn supported(self) -> bool {
        let f = cpu_features();
        match self {
            Tier::Scalar => true,
            Tier::Avx => f.avx && f.fma,
            Tier::Avx2Fma => f.avx2 && f.fma,
        }
    }

    /// Label for bench/test output.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Scalar => "scalar",
            Tier::Avx => "avx",
            Tier::Avx2Fma => "avx2fma",
        }
    }
}

/// `out[j] = a.mul_add(b[j], out[j])` over the overlapping prefix — the
/// fused accumulating inner loop shared by the matmuls and the MLP's
/// shared-prefix forward.  The tier decision is the caller's (hoist one
/// [`Tier::detect`] out of the loop; the tier must be supported).
#[inline]
pub(crate) fn axpy_with(tier: Tier, a: f32, b: &[f32], out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if tier != Tier::Scalar {
        // SAFETY: non-scalar tiers are only constructed when runtime
        // detection (or the asserting `force_tier`) found AVX and FMA.
        unsafe { axpy_fma(a, b, out) };
        return;
    }
    let _ = tier;
    for (o, &bv) in out.iter_mut().zip(b) {
        *o = a.mul_add(bv, *o);
    }
}

/// AVX body of [`axpy_with`]: 8-lane `vfmadd`.  Per element this is the same
/// single correctly-rounded fused multiply-add as the scalar `mul_add`
/// loop, so results are bit-identical.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx,fma")]
fn axpy_fma(a: f32, b: &[f32], out: &mut [f32]) {
    use std::arch::x86_64::*;
    let n = out.len().min(b.len());
    let av = _mm256_set1_ps(a);
    let mut j = 0;
    while j + 8 <= n {
        // SAFETY: `j + 8 <= n` and `n` is the shorter of the two slice
        // lengths, so the unaligned 8-lane loads and the store all stay
        // inside `b` and `out`.
        unsafe {
            let bv = _mm256_loadu_ps(b.as_ptr().add(j));
            let ov = _mm256_loadu_ps(out.as_ptr().add(j));
            _mm256_storeu_ps(out.as_mut_ptr().add(j), _mm256_fmadd_ps(av, bv, ov));
        }
        j += 8;
    }
    while j < n {
        // SAFETY: `j < n <= b.len()` and `n <= out.len()`, so both
        // unchecked accesses are in bounds.
        unsafe {
            let o = out.get_unchecked_mut(j);
            *o = a.mul_add(*b.get_unchecked(j), *o);
        }
        j += 1;
    }
}

/// Row-at-a-time FMA kernel for one output row: `out_row[j] = Σ_k
/// fma(a_row[k], w[k*cols + j])`, with the output row held in registers
/// across the whole `k` loop.  Per element: one fused multiply-add per `k`,
/// `k` ascending, skipping zero `a_row[k]` when `SKIP_ZEROS` — exactly the
/// scalar tier's sequence, so results are bit-identical.
///
/// The slice bounds the pointer arithmetic relies on (`out_row.len() ==
/// cols`, `w.len() >= a_row.len() * cols`) are asserted on entry in debug
/// builds and guaranteed by `matmul_into`'s shape checks in release builds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx,fma")]
fn accum_row_fma<const SKIP_ZEROS: bool>(
    a_row: &[f32],
    w: &[f32],
    cols: usize,
    out_row: &mut [f32],
) {
    use std::arch::x86_64::*;
    debug_assert!(w.len() >= a_row.len() * cols);
    debug_assert_eq!(out_row.len(), cols);
    let mut j0 = 0usize;
    // 64-column tiles: 8 accumulators, no loads/stores of `out` inside `k`.
    while j0 + 64 <= cols {
        debug_assert!(j0 + 64 <= out_row.len());
        let p = out_row.as_mut_ptr();
        // SAFETY: `j0 + 64 <= cols == out_row.len()`, so all eight 8-lane
        // lanes of the tile lie inside `out_row`.
        let mut acc = unsafe {
            [
                _mm256_loadu_ps(p.add(j0)),
                _mm256_loadu_ps(p.add(j0 + 8)),
                _mm256_loadu_ps(p.add(j0 + 16)),
                _mm256_loadu_ps(p.add(j0 + 24)),
                _mm256_loadu_ps(p.add(j0 + 32)),
                _mm256_loadu_ps(p.add(j0 + 40)),
                _mm256_loadu_ps(p.add(j0 + 48)),
                _mm256_loadu_ps(p.add(j0 + 56)),
            ]
        };
        for (k, &a) in a_row.iter().enumerate() {
            if SKIP_ZEROS && a == 0.0 {
                continue; // matches the scalar loop's ReLU skip
            }
            let av = _mm256_set1_ps(a);
            debug_assert!(k * cols + j0 + 64 <= w.len());
            for (t, accv) in acc.iter_mut().enumerate() {
                // SAFETY: `k < a_row.len()` and `j0 + 64 <= cols`, so
                // `k*cols + j0 + t*8 + 8 <= a_row.len()*cols <= w.len()`
                // keeps every lane of the load inside `w`.
                let bv = unsafe { _mm256_loadu_ps(w.as_ptr().add(k * cols + j0 + t * 8)) };
                *accv = _mm256_fmadd_ps(av, bv, *accv);
            }
        }
        for (t, accv) in acc.iter().enumerate() {
            // SAFETY: same tile bound as the loads above — `j0 + t*8 + 8 <=
            // j0 + 64 <= out_row.len()`.
            unsafe { _mm256_storeu_ps(p.add(j0 + t * 8), *accv) };
        }
        j0 += 64;
    }
    // 8-column tiles.
    while j0 + 8 <= cols {
        debug_assert!(j0 + 8 <= out_row.len());
        let p = out_row.as_mut_ptr();
        // SAFETY: `j0 + 8 <= cols == out_row.len()` bounds the load.
        let mut acc = unsafe { _mm256_loadu_ps(p.add(j0)) };
        for (k, &a) in a_row.iter().enumerate() {
            if SKIP_ZEROS && a == 0.0 {
                continue;
            }
            debug_assert!(k * cols + j0 + 8 <= w.len());
            // SAFETY: `k < a_row.len()` and `j0 + 8 <= cols`, so the 8-lane
            // load ends at `k*cols + j0 + 8 <= a_row.len()*cols <= w.len()`.
            let bv = unsafe { _mm256_loadu_ps(w.as_ptr().add(k * cols + j0)) };
            acc = _mm256_fmadd_ps(_mm256_set1_ps(a), bv, acc);
        }
        // SAFETY: same bound as the load of this tile.
        unsafe { _mm256_storeu_ps(p.add(j0), acc) };
        j0 += 8;
    }
    // Remaining columns, scalar `mul_add` (same fused op as the lanes).
    if j0 < cols {
        for (k, &a) in a_row.iter().enumerate() {
            if SKIP_ZEROS && a == 0.0 {
                continue;
            }
            for j in j0..cols {
                debug_assert!(j < out_row.len() && k * cols + j < w.len());
                // SAFETY: `j < cols == out_row.len()`, and `k*cols + j <
                // a_row.len()*cols <= w.len()`.
                unsafe {
                    let o = out_row.get_unchecked_mut(j);
                    *o = a.mul_add(*w.get_unchecked(k * cols + j), *o);
                }
            }
        }
    }
}

/// The 4×16 register-blocked AVX2+FMA microkernel: four output rows × 16
/// columns (two YMM accumulators per row, 8 live accumulators) per tile.
/// Each 16-wide chunk of a `B` row is loaded *once* per `k` and fused into
/// all four output rows, and a column remainder below 8 lanes is handled
/// with AVX masked loads/stores — no scalar cleanup loop, no out-of-bounds
/// lanes.  That masked tail is where this kernel wins (2–3× on the TTP's
/// 21-wide output layer, where [`accum_row_fma`] falls into a scalar tail);
/// [`Matrix::matmul_into_with`] dispatches between the two by column shape.
///
/// `a4` holds four consecutive rows of `A` (`4 * k` values), `out4` the four
/// matching rows of the output (`4 * cols`, contiguous in the row-major
/// output).  Per element the operation sequence is identical to the scalar
/// tier: one fused multiply-add per `k` in ascending-`k` order, with the
/// per-`(row, k)` zero skip when `SKIP_ZEROS`, so blocking is invisible
/// bitwise.
///
/// The slice geometry the pointer arithmetic relies on (`a4.len() == 4*k`,
/// `out4.len() == 4*cols`, `w.len() >= k*cols`) is asserted in debug builds
/// and guaranteed by `matmul_into`'s shape checks in release builds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
// lint: panic-free — register-block offsets are bounded by the dims the caller asserted; pinned vs the scalar tier by tests
fn accum_rows4_fma<const SKIP_ZEROS: bool>(
    a4: &[f32],
    k: usize,
    w: &[f32],
    cols: usize,
    out4: &mut [f32],
) {
    use std::arch::x86_64::*;
    debug_assert_eq!(a4.len(), 4 * k);
    debug_assert_eq!(out4.len(), 4 * cols);
    debug_assert!(w.len() >= k * cols);
    let op = out4.as_mut_ptr();
    let wp = w.as_ptr();
    let mut j0 = 0usize;
    // 16-column register tiles: 4 rows × 2 YMM accumulators.
    while j0 + 16 <= cols {
        let mut acc = [[_mm256_setzero_ps(); 2]; 4];
        for (r, accr) in acc.iter_mut().enumerate() {
            for (t, accv) in accr.iter_mut().enumerate() {
                // SAFETY: `r < 4`, `t < 2`, and `j0 + 16 <= cols`, so
                // `r*cols + j0 + t*8 + 8 <= 4*cols == out4.len()`.
                *accv = unsafe { _mm256_loadu_ps(op.add(r * cols + j0 + t * 8)) };
            }
        }
        for kk in 0..k {
            let a = [a4[kk], a4[k + kk], a4[2 * k + kk], a4[3 * k + kk]];
            if SKIP_ZEROS && a == [0.0; 4] {
                continue; // no row wants this B chunk — skip the loads too
            }
            // SAFETY: `kk < k` and `j0 + 16 <= cols`, so both 8-lane loads
            // end at `kk*cols + j0 + 16 <= k*cols <= w.len()`.
            let (b0, b1) = unsafe {
                (
                    _mm256_loadu_ps(wp.add(kk * cols + j0)),
                    _mm256_loadu_ps(wp.add(kk * cols + j0 + 8)),
                )
            };
            for (r, accr) in acc.iter_mut().enumerate() {
                if SKIP_ZEROS && a[r] == 0.0 {
                    continue; // matches the scalar loop's ReLU skip, per row
                }
                let av = _mm256_set1_ps(a[r]);
                accr[0] = _mm256_fmadd_ps(av, b0, accr[0]);
                accr[1] = _mm256_fmadd_ps(av, b1, accr[1]);
            }
        }
        for (r, accr) in acc.iter().enumerate() {
            for (t, accv) in accr.iter().enumerate() {
                // SAFETY: same tile bound as the accumulator loads above.
                unsafe { _mm256_storeu_ps(op.add(r * cols + j0 + t * 8), *accv) };
            }
        }
        j0 += 16;
    }
    // One 8-column tile if at least 8 columns remain.
    if j0 + 8 <= cols {
        let mut acc = [_mm256_setzero_ps(); 4];
        for (r, accv) in acc.iter_mut().enumerate() {
            // SAFETY: `j0 + 8 <= cols` bounds the lane span inside row `r`
            // of `out4` (`r*cols + j0 + 8 <= 4*cols == out4.len()`).
            *accv = unsafe { _mm256_loadu_ps(op.add(r * cols + j0)) };
        }
        for kk in 0..k {
            let a = [a4[kk], a4[k + kk], a4[2 * k + kk], a4[3 * k + kk]];
            if SKIP_ZEROS && a == [0.0; 4] {
                continue;
            }
            // SAFETY: `kk < k` and `j0 + 8 <= cols` bound the load inside `w`.
            let bv = unsafe { _mm256_loadu_ps(wp.add(kk * cols + j0)) };
            for (r, accv) in acc.iter_mut().enumerate() {
                if SKIP_ZEROS && a[r] == 0.0 {
                    continue;
                }
                *accv = _mm256_fmadd_ps(_mm256_set1_ps(a[r]), bv, *accv);
            }
        }
        for (r, accv) in acc.iter().enumerate() {
            // SAFETY: same bound as this tile's loads.
            unsafe { _mm256_storeu_ps(op.add(r * cols + j0), *accv) };
        }
        j0 += 8;
    }
    // Masked column tail (1–7 columns): lanes `>= rem` are disabled in both
    // the loads and the stores, so no lane ever touches memory past the row.
    if j0 < cols {
        let rem = (cols - j0) as i32;
        debug_assert!((1..8).contains(&rem));
        let mask =
            _mm256_cmpgt_epi32(_mm256_set1_epi32(rem), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
        let mut acc = [_mm256_setzero_ps(); 4];
        for (r, accv) in acc.iter_mut().enumerate() {
            // SAFETY: enabled lanes are `j0..j0+rem == cols`, inside row `r`
            // of `out4`; masked lanes perform no memory access.
            *accv = unsafe { _mm256_maskload_ps(op.add(r * cols + j0), mask) };
        }
        for kk in 0..k {
            let a = [a4[kk], a4[k + kk], a4[2 * k + kk], a4[3 * k + kk]];
            if SKIP_ZEROS && a == [0.0; 4] {
                continue;
            }
            // SAFETY: enabled lanes end at `kk*cols + cols <= k*cols <=
            // w.len()`; masked lanes perform no memory access.
            let bv = unsafe { _mm256_maskload_ps(wp.add(kk * cols + j0), mask) };
            for (r, accv) in acc.iter_mut().enumerate() {
                if SKIP_ZEROS && a[r] == 0.0 {
                    continue;
                }
                *accv = _mm256_fmadd_ps(_mm256_set1_ps(a[r]), bv, *accv);
            }
        }
        for (r, accv) in acc.iter().enumerate() {
            // SAFETY: same enabled-lane bound as the masked loads.
            unsafe { _mm256_maskstore_ps(op.add(r * cols + j0), mask, *accv) };
        }
    }
}

/// The vector tiers' body of both matmuls: `out += a · w` for `a` (`m × k`),
/// `w` (`k × n`) and `out` (`m × n`, zeroed by the caller), with the zero
/// skip of [`Matrix::matmul_into`] when `SKIP_ZEROS`.
///
/// The Avx2Fma tier is shape-aware (bit-identity makes the kernel choice
/// free): when the columns split into whole 8-lane tiles, the row-at-a-time
/// kernel's 64-wide tile already runs near FMA peak — `w` loads are L1 hits
/// at these sizes, so the 4-row block's load amortization can't pay for its
/// strided `a` gather and its 4× re-branching of the per-row zero skips.
/// The block earns its keep on ragged column counts (the TTP's 21-wide
/// output layer), where the row kernel would fall into a scalar tail but the
/// masked-lane tail stays vectorized — measured 2–3× there (`nn_kernels`
/// bench, dense and ReLU-sparse).
///
/// # Safety
/// `tier` must be [`Tier::Avx`] or [`Tier::Avx2Fma`] and supported by this
/// CPU ([`Tier::supported`]).  `a.len() == m * k`, `w.len() >= k * n` and
/// `out.len() == m * n`, which the callers' shape asserts guarantee.
#[cfg(target_arch = "x86_64")]
// lint: panic-free — row offsets are bounded by the m*k / m*n geometry the caller asserted
unsafe fn accum_rows_vector<const SKIP_ZEROS: bool>(
    tier: Tier,
    a: &[f32],
    k: usize,
    w: &[f32],
    n: usize,
    out: &mut [f32],
) {
    debug_assert!(tier != Tier::Scalar && tier.supported());
    debug_assert!(w.len() >= k * n);
    let m = out.len().checked_div(n).unwrap_or(0); // n == 0: `out` is empty
    let mut i = 0;
    if tier == Tier::Avx2Fma && !n.is_multiple_of(8) {
        // 4-row register blocks...
        while i + 4 <= m {
            // SAFETY: the caller guarantees `Avx2Fma` is supported, i.e.
            // AVX2 and FMA are present.
            unsafe {
                accum_rows4_fma::<SKIP_ZEROS>(
                    &a[i * k..(i + 4) * k],
                    k,
                    w,
                    n,
                    &mut out[i * n..(i + 4) * n],
                )
            };
            i += 4;
        }
        // ... and the row-at-a-time kernel for the 1–3 row tail
        // (bit-identical: same per-element op sequence).
    }
    while i < m {
        // SAFETY: both vector tiers imply the AVX and FMA this kernel
        // requires (the caller guarantees the tier is supported).
        unsafe {
            accum_row_fma::<SKIP_ZEROS>(&a[i * k..(i + 1) * k], w, n, &mut out[i * n..(i + 1) * n])
        };
        i += 1;
    }
}

/// Scalar body of [`Matrix::matmul_t_into`], and the oracle the vector tiers
/// are pinned against: `out = a · bᵀ` with each output element one
/// sequential dot product — `acc = +0`, then `acc = a[i][k].mul_add(b[j][k],
/// acc)` for every `k` ascending, zeros included.
// lint: panic-free — row/col offsets are bounded by the dims the caller asserted
fn matmul_t_rows(a: &[f32], cols: usize, b: &[f32], b_rows: usize, out: &mut [f32]) {
    if b_rows == 0 {
        return; // `out` is m×0 (empty); chunks_exact_mut(0) would panic
    }
    for (i, out_row) in out.chunks_exact_mut(b_rows).enumerate() {
        let a_row = &a[i * cols..(i + 1) * cols];
        for (j, o) in out_row.iter_mut().enumerate() {
            let b_row = &b[j * cols..(j + 1) * cols];
            let mut acc = 0.0f32;
            for (&x, &y) in a_row.iter().zip(b_row) {
                acc = x.mul_add(y, acc);
            }
            *o = acc;
        }
    }
}

/// A dense row-major matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Default for Matrix {
    /// An empty (0 × 0) matrix — the starting state of every reusable
    /// scratch buffer before its first resize.
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl Matrix {
    /// An all-zeros matrix of the given shape.
    // lint: alloc-free — cold-path constructor: reached only through lazy scratch init that tests/alloc_gate.rs differences to zero
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Build from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/buffer mismatch");
        Matrix { rows, cols, data }
    }

    /// Build from row slices; all rows must have equal length.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        assert!(!rows.is_empty(), "at least one row required");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Matrix { rows: rows.len(), cols, data }
    }

    /// A 1×n row vector.
    pub fn row_vector(v: &[f32]) -> Self {
        Matrix { rows: 1, cols: v.len(), data: v.to_vec() }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of the flat row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat row-major buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    #[inline]
    // lint: panic-free — the `# Panics` contract: callers index with r/c taken from this matrix's own dims
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    // lint: panic-free — the `# Panics` contract: callers index with rows taken from this matrix's own dims
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    // lint: panic-free — the `# Panics` contract: callers index with rows taken from this matrix's own dims
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Reshape in place to `rows × cols`, reusing the existing allocation
    /// when it is large enough.  The contents are unspecified afterwards;
    /// callers are expected to overwrite every element.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// `self * other` — (m×k)·(k×n) → m×n, ikj loop order so the innermost
    /// loop streams both the output row and the `other` row.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul`] writing into a caller-owned matrix (resized to fit)
    /// so steady-state inference performs no allocations.  Dispatches to the
    /// best kernel tier the CPU supports ([`Tier::detect`]).
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        self.matmul_into_with(Tier::detect(), other, out)
    }

    /// [`Matrix::matmul_into`] on an explicit kernel tier — how tests and
    /// benches pin the tiers bit-identical against each other.
    ///
    /// # Panics
    /// Panics if the CPU does not support `tier` (see [`Tier::supported`]).
    // lint-root: panic-free, alloc-free
    // lint: panic-free — entry asserts pin the (m,k)x(k,n) shape; tier kernels index inside it
    // lint: alloc-free — `out` resizes once to m*n; warm calls reuse the buffer (tests/alloc_gate.rs)
    pub fn matmul_into_with(&self, tier: Tier, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        assert!(tier.supported(), "kernel tier {tier:?} not supported by this CPU");
        out.resize(self.rows, other.cols);
        out.data.fill(0.0);
        let k = self.cols;
        let n = other.cols;
        #[cfg(target_arch = "x86_64")]
        if tier != Tier::Scalar {
            // SAFETY: a non-scalar tier passed the `supported` assert above,
            // and the shape asserts and resize fix `m*k`, `k*n` and `m*n`.
            unsafe {
                accum_rows_vector::<true>(tier, &self.data, k, &other.data, n, &mut out.data)
            };
            return;
        }
        for i in 0..self.rows {
            let a_row = &self.data[i * k..(i + 1) * k];
            let out_row = &mut out.data[i * n..(i + 1) * n];
            for (kk, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue; // common after ReLU
                }
                axpy_with(Tier::Scalar, a, other.row(kk), out_row);
            }
        }
    }

    /// `selfᵀ * other` without materializing the transpose.
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, other.cols);
        self.t_matmul_acc(other, &mut out);
        out
    }

    /// `out += selfᵀ * other`, accumulating into a caller-owned matrix of
    /// matching shape — the weight-gradient kernel of `Mlp::backward_into`
    /// (`gw += xᵀ·dy` with `gw` pre-zeroed by `zero_grad`), so steady-state
    /// training allocates nothing here.  The per-element accumulation order
    /// is identical to [`Matrix::t_matmul`], so accumulating into a zeroed
    /// `out` produces the same values.
    pub fn t_matmul_acc(&self, other: &Matrix, out: &mut Matrix) {
        self.t_matmul_acc_with(Tier::detect(), other, out)
    }

    /// [`Matrix::t_matmul_acc`] on an explicit kernel tier.
    ///
    /// # Panics
    /// Panics if the CPU does not support `tier` (see [`Tier::supported`]).
    // lint: panic-free — entry asserts pin the transposed accumulate shape; kernels index inside it
    pub fn t_matmul_acc_with(&self, tier: Tier, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "row counts must agree");
        assert_eq!((out.rows, out.cols), (self.cols, other.cols), "output shape mismatch");
        assert!(tier.supported(), "kernel tier {tier:?} not supported by this CPU");
        for r in 0..self.rows {
            let a_row = &self.data[r * self.cols..(r + 1) * self.cols];
            let b_row = other.row(r);
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                axpy_with(tier, a, b_row, &mut out.data[i * other.cols..(i + 1) * other.cols]);
            }
        }
    }

    /// `self * otherᵀ`.
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_t_into(other, &mut Matrix::zeros(0, 0), &mut out);
        out
    }

    /// [`Matrix::matmul_t`] writing into a caller-owned matrix (resized to
    /// fit) — the backpropagated-gradient kernel (`dx = dy·Wᵀ`) of the
    /// allocation-free training backward pass.  `other_t` is a reusable
    /// buffer for the vector tiers' transposed copy of `other`; its contents
    /// on return are unspecified.
    pub fn matmul_t_into(&self, other: &Matrix, other_t: &mut Matrix, out: &mut Matrix) {
        self.matmul_t_into_with(Tier::detect(), other, other_t, out)
    }

    /// [`Matrix::matmul_t_into`] on an explicit kernel tier.
    ///
    /// The scalar tier computes each output element as one sequential fused
    /// dot product.  Vectorizing that reduction would reorder it, so the
    /// vector tiers vectorize across output *columns* instead: they
    /// transpose `other` into `other_t` and run the column-lane kernels of
    /// [`Matrix::matmul_into_with`] with the zero skip compiled out.  Each
    /// lane then carries one element's own chain — start at `+0`, one fused
    /// multiply-add per `k`, `k` ascending — so every tier is bit-identical.
    ///
    /// # Panics
    /// Panics if the CPU does not support `tier` (see [`Tier::supported`]).
    // lint: panic-free — entry asserts pin the (m,k)x(n,k)^T shape; tier kernels index inside it
    // lint: alloc-free — `out` and `other_t` resize once; warm calls reuse the buffers (tests/alloc_gate.rs)
    pub fn matmul_t_into_with(
        &self,
        tier: Tier,
        other: &Matrix,
        other_t: &mut Matrix,
        out: &mut Matrix,
    ) {
        assert_eq!(self.cols, other.cols, "column counts must agree");
        assert!(tier.supported(), "kernel tier {tier:?} not supported by this CPU");
        out.resize(self.rows, other.rows);
        #[cfg(target_arch = "x86_64")]
        if tier != Tier::Scalar {
            other.transpose_into(other_t);
            out.data.fill(0.0);
            // SAFETY: a non-scalar tier passed the `supported` assert above;
            // `other_t` is `k × n` and `out` is `m × n` after the resizes.
            unsafe {
                accum_rows_vector::<false>(
                    tier,
                    &self.data,
                    self.cols,
                    &other_t.data,
                    other.rows,
                    &mut out.data,
                )
            };
            return;
        }
        let _ = other_t; // the scalar tier reads `other` in place
        matmul_t_rows(&self.data, self.cols, &other.data, other.rows, &mut out.data);
    }

    /// Explicit transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.transpose_into(&mut out);
        out
    }

    /// [`Matrix::transpose`] into a caller-owned matrix (resized to fit).
    // lint: panic-free — `out` is resized to cols x rows before the in-range row/col loops index it
    // lint: alloc-free — `out` resizes once to the transposed shape; warm calls reuse it (tests/alloc_gate.rs)
    fn transpose_into(&self, out: &mut Matrix) {
        out.resize(self.cols, self.rows);
        for (r, row) in self.data.chunks_exact(self.cols.max(1)).enumerate() {
            for (c, &v) in row.iter().enumerate() {
                out.data[c * self.rows + r] = v;
            }
        }
    }

    /// Add `v` to every row of `self` in place (broadcast bias add).
    // lint: panic-free — the entry assert pins row.len() == cols; the loop indexes inside it
    pub fn add_row_broadcast(&mut self, v: &[f32]) {
        assert_eq!(v.len(), self.cols, "bias length must match columns");
        for r in 0..self.rows {
            for (x, &b) in self.row_mut(r).iter_mut().zip(v) {
                *x += b;
            }
        }
    }

    /// Elementwise in-place map.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Sum each column into a vector (used for bias gradients).
    pub fn col_sums(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.cols];
        self.col_sums_acc(&mut out);
        out
    }

    /// Accumulate each column's sum into a caller-owned slice (`out[c] +=
    /// Σ_r self[r][c]`) — the bias-gradient kernel of `Mlp::backward_into`
    /// (`gb += col_sums(dy)` with `gb` pre-zeroed by `zero_grad`).
    // lint: panic-free — the entry assert pins acc.len() == cols; the loop indexes inside it
    pub fn col_sums_acc(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.cols, "output length must match columns");
        for r in 0..self.rows {
            for (o, &x) in out.iter_mut().zip(self.row(r)) {
                *o += x;
            }
        }
    }

    /// Frobenius norm, useful for gradient-clipping and tests.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tiers this CPU can actually run (always includes `Scalar`).
    fn supported_tiers() -> Vec<Tier> {
        Tier::ALL.into_iter().filter(|t| t.supported()).collect()
    }

    #[test]
    fn matmul_small_known() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn fused_transposed_matmuls_agree_with_explicit() {
        let a = Matrix::from_rows(&[vec![1.0, -2.0, 0.5], vec![0.0, 3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![2.0, 1.0], vec![-1.0, 0.0], vec![0.5, 3.0]]);
        // aᵀ (3×2) · a? Use shapes that line up:
        // t_matmul: aᵀ(3x2)·c where c has 2 rows.
        let c = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.t_matmul(&c), a.transpose().matmul(&c));
        // matmul_t: a(2x3)·bᵀ? b is 3x2 so bᵀ is 2x3 — need matching cols: use b.transpose (2x3)
        let bt = b.transpose();
        assert_eq!(a.matmul_t(&bt), a.matmul(&bt.transpose()));
    }

    #[test]
    fn broadcast_and_colsums() {
        let mut m = Matrix::zeros(3, 2);
        m.add_row_broadcast(&[1.0, -1.0]);
        assert_eq!(m.col_sums(), vec![3.0, -3.0]);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn matmul_into_matches_matmul_across_reuses() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let mut out = Matrix::zeros(0, 0);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
        // Reuse with a different (smaller) shape: stale contents must not leak.
        let c = Matrix::from_rows(&[vec![1.0, -1.0]]);
        c.matmul_into(&b, &mut out);
        assert_eq!(out, c.matmul(&b));
        assert_eq!((out.rows(), out.cols()), (1, 2));
    }

    #[test]
    fn detection_is_cached_and_consistent() {
        let f = cpu_features();
        assert_eq!(f, cpu_features(), "cached detection must be stable");
        let t = Tier::detect();
        assert!(t.supported());
        // AVX2+FMA implies the lower vector tier is also runnable.
        if Tier::Avx2Fma.supported() {
            assert!(Tier::Avx.supported());
        }
    }

    #[test]
    fn force_tier_overrides_detection() {
        // Scalar is supported everywhere, so this test is portable.  It
        // restores auto-detection before returning (other tests in this
        // binary only ever observe a *supported* tier either way).
        force_tier(Some(Tier::Scalar));
        assert_eq!(Tier::detect(), Tier::Scalar);
        force_tier(None);
        assert!(Tier::detect().supported());
    }

    #[test]
    fn axpy_tiers_are_bit_identical() {
        // Odd length exercises the 8-lane body and the scalar tail.
        for n in [1usize, 7, 8, 21, 64, 67] {
            let b: Vec<f32> = (0..n).map(|i| ((i as f32) * 0.61).sin() * 1e3).collect();
            let init: Vec<f32> = (0..n).map(|i| (i as f32) * 0.25 - 3.0).collect();
            let mut reference = init.clone();
            axpy_with(Tier::Scalar, 1.37, &b, &mut reference);
            for tier in supported_tiers() {
                let mut out = init.clone();
                axpy_with(tier, 1.37, &b, &mut out);
                assert_eq!(out, reference, "n = {n}, tier {tier:?}");
            }
        }
    }

    #[test]
    fn matmul_tiers_are_bit_identical() {
        // Shapes cover the 4×16 register block, the 1–3 row tail, the
        // 8-wide column tile, the masked column tail, and combinations
        // (16 + 8 + masked tail at cols = 29); zeros in the left matrix
        // exercise the per-(row, k) sparsity skip on every path.
        for (m, k, n) in [
            (1usize, 5usize, 3usize),
            (4, 21, 64),
            (10, 64, 21),
            (3, 7, 77),
            (8, 16, 16),
            (5, 3, 29),
            (12, 22, 8),
        ] {
            let a = Matrix::from_vec(
                m,
                k,
                (0..m * k)
                    .map(|i| if i % 3 == 0 { 0.0 } else { ((i as f32) * 0.37).sin() * 10.0 })
                    .collect(),
            );
            let b = Matrix::from_vec(
                k,
                n,
                (0..k * n).map(|i| ((i as f32) * 0.11).cos() * 5.0).collect(),
            );
            let mut reference = Matrix::zeros(0, 0);
            a.matmul_into_with(Tier::Scalar, &b, &mut reference);
            for tier in supported_tiers() {
                let mut out = Matrix::zeros(0, 0);
                a.matmul_into_with(tier, &b, &mut out);
                assert_eq!(out.data(), reference.data(), "shape {m}x{k}x{n}, tier {tier:?}");
            }
        }
    }

    #[test]
    fn t_matmul_acc_from_zero_matches_t_matmul() {
        let a = Matrix::from_rows(&[vec![1.0, -2.0, 0.0], vec![0.5, 3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![2.0, 1.0], vec![-1.0, 0.25]]);
        let reference = a.t_matmul(&b);
        for tier in supported_tiers() {
            let mut acc = Matrix::zeros(3, 2);
            a.t_matmul_acc_with(tier, &b, &mut acc);
            assert_eq!(reference.data(), acc.data(), "tier {tier:?}");
            // A second accumulation doubles every element.
            a.t_matmul_acc_with(tier, &b, &mut acc);
            for (x, r) in acc.data().iter().zip(reference.data()) {
                assert_eq!(*x, 2.0 * r, "tier {tier:?}");
            }
        }
    }

    #[test]
    fn matmul_t_tiers_are_bit_identical_across_reuses() {
        let a = Matrix::from_rows(&[vec![1.0, -2.0, 0.5], vec![0.0, 3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![2.0, 1.0, -0.5], vec![1.5, 0.0, 3.0]]);
        let reference = a.matmul_t(&b);
        for tier in supported_tiers() {
            let (mut bt, mut out) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
            a.matmul_t_into_with(tier, &b, &mut bt, &mut out);
            assert_eq!(out, reference, "tier {tier:?}");
            // Reuse with a different shape: stale contents must not leak.
            let c = Matrix::from_rows(&[vec![1.0, 2.0, 3.0]]);
            c.matmul_t_into_with(tier, &b, &mut bt, &mut out);
            assert_eq!(out, c.matmul_t(&b), "tier {tier:?}");
            assert_eq!((out.rows(), out.cols()), (1, 2));
        }
    }

    #[test]
    fn matmul_t_tiers_match_scalar_on_edge_values() {
        // Small enough for Miri, which runs the vector kernels when CI
        // compiles with AVX2+FMA: n = 19 takes the 4-row block's 16-wide
        // tile and masked tail plus the row kernel's 1-row tail, n = 8 the
        // 8-wide tile, n = 3 the scalar tail; k = 1 is a one-step chain.
        // The values make skipping a zero `a` visible: `0 · inf` is NaN,
        // and `+0 + (-1e-30 · 1e-30)` rounds to -0, which a later `0 · 2`
        // step turns back into +0.
        let a_vals = [-1e-30, 0.0, 1.5, -0.0, 0.25];
        let w_vals = [1e-30, 2.0, f32::INFINITY, -0.5, 1e-40, 3.0];
        for (m, k, n) in [(5usize, 3usize, 19usize), (2, 4, 8), (3, 1, 3), (0, 2, 5)] {
            let a = Matrix::from_vec(m, k, (0..m * k).map(|i| a_vals[i % 5]).collect());
            let w = Matrix::from_vec(n, k, (0..n * k).map(|i| w_vals[i % 6]).collect());
            let mut reference = Matrix::zeros(0, 0);
            a.matmul_t_into_with(Tier::Scalar, &w, &mut Matrix::zeros(0, 0), &mut reference);
            for tier in supported_tiers() {
                let (mut wt, mut out) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
                a.matmul_t_into_with(tier, &w, &mut wt, &mut out);
                assert_eq!((out.rows(), out.cols()), (m, n));
                for (x, r) in out.data().iter().zip(reference.data()) {
                    assert!(
                        x.to_bits() == r.to_bits() || (x.is_nan() && r.is_nan()),
                        "shape {m}x{k}x{n}, tier {tier:?}: {x} vs {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn col_sums_acc_accumulates() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, -4.0]]);
        let mut out = vec![10.0f32, 20.0];
        m.col_sums_acc(&mut out);
        assert_eq!(out, vec![14.0, 18.0]);
    }

    #[test]
    fn resize_changes_shape() {
        let mut m = Matrix::zeros(2, 3);
        m.resize(4, 5);
        assert_eq!((m.rows(), m.cols()), (4, 5));
        assert_eq!(m.data().len(), 20);
    }

    #[test]
    fn row_accessors() {
        let m = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(m.row(1), &[4., 5., 6.]);
        assert_eq!(m.get(0, 2), 3.0);
    }
}
