//! Row-major `f32` matrices sized for small dense networks.
//!
//! The TTP and Pensieve policy networks are at most a few hundred units wide,
//! but the batched RCT day loop feeds them `(streams · rungs)`-row batches —
//! hundreds of rows per forward pass — and the nightly retrain runs 64-row
//! minibatches through the same layers forwards and backwards, so the matmul
//! family dispatches over a small kernel hierarchy at runtime:
//!
//! * [`Tier::Avx2Fma`] and [`Tier::Avx`] — one 8-lane AVX+FMA row kernel:
//!   each output row runs in 64-column register tiles plus one tile of the
//!   remaining columns whose last vector is masked (the TTP's 21-wide output
//!   layer is two full vectors and 5 masked lanes), the tile's accumulators
//!   held in registers across the whole `k` loop.  The kernel needs only AVX
//!   and FMA, so both tiers run it.
//! * [`Tier::Scalar`] — portable `f32::mul_add` loops; the oracle the vector
//!   tiers are pinned against, and what Miri interprets unless CI enables
//!   the vector features at compile time.
//!
//! All tiers are **bit-identical**: every output element sees exactly one
//! *fused* multiply-add per accumulation step (`f32::mul_add` and the
//! hardware `vfmadd` are both the correctly-rounded IEEE 754 fusedMultiplyAdd,
//! so they agree to the last bit), starting from `+0` in ascending-`k` order.
//! The vector kernels never reduce *across* lanes: each of the 8 lanes of a
//! register is a different output column carrying its own sequential chain,
//! so tiling only changes *which* elements are in flight together, never
//! any element's own operation sequence.  CPUs with AVX but no FMA fall back
//! to [`Tier::Scalar`] — a non-fused vector path (separate multiply and add
//! roundings) could not stay bit-identical to the fused tiers.
//!
//! The forward product `x·W` ([`Matrix::matmul_into`]) and the weight
//! gradient `xᵀ·dy` ([`Matrix::t_matmul_acc`]) skip the `k` steps whose
//! left operand is ±0 — about half of a trained TTP's hidden activations
//! after ReLU — on every tier; NaN and ±inf are kept.  The scalar tier
//! branches on `a == 0.0`.  That branch follows the activations' pattern,
//! which no predictor learns, so the vector tiers instead build a bitmask of
//! the nonzero entries per chunk of up to 64 `k` (`vcmpps` + `vmovmskps`)
//! and walk its set bits in ascending order, or every `k` when the chunk
//! has no zero.  The backprop product `dy·Wᵀ` ([`Matrix::matmul_t_into`])
//! has no zero skip: its scalar tier is a plain dot product per element, and
//! `fma(0, b, acc)` differs from skipping it when `b` is infinite or NaN, or
//! when `acc` is `-0`.  Its vector tiers transpose `W` into a caller-owned
//! buffer and run the same row kernel with the zero skip off, which
//! reproduces the scalar dot product bit for bit.
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
    /// The 8-lane AVX row kernels using FMA (requires AVX *and* FMA).
    Avx = 1,
    /// What detection reports on AVX2+FMA hardware; runs the same kernels
    /// as [`Tier::Avx`], which use no AVX2 instruction.
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

/// The `vmaskmovps` mask enabling the first `lanes` (1..=8) lanes: lane `i`
/// is enabled iff `lanes > i`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn lane_mask(lanes: usize) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::*;
    let index = _mm256_setr_ps(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0);
    _mm256_castps_si256(_mm256_cmp_ps::<_CMP_GT_OQ>(_mm256_set1_ps(lanes as f32), index))
}

/// AVX body of [`axpy_with`]: 8-lane `vfmadd`, with a masked last vector for
/// a ragged length.  Per element this is the same single correctly-rounded
/// fused multiply-add as the scalar `mul_add` loop, so results are
/// bit-identical.
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
    if j < n {
        let mask = lane_mask(n - j);
        // SAFETY: the enabled lanes are `j..n`, inside both slices; masked
        // lanes perform no memory access.
        unsafe {
            let bv = _mm256_maskload_ps(b.as_ptr().add(j), mask);
            let ov = _mm256_maskload_ps(out.as_ptr().add(j), mask);
            _mm256_maskstore_ps(out.as_mut_ptr().add(j), mask, _mm256_fmadd_ps(av, bv, ov));
        }
    }
}

/// Bit `i` is set iff `chunk[i]` is not ±0 (`chunk.len() <= 64`).  NaN and
/// ±inf count as nonzero, so a clear bit is exactly the scalar tier's
/// `a == 0.0` skip test: `_CMP_NEQ_UQ` is true for unordered operands.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn nonzero_bits(chunk: &[f32]) -> u64 {
    use std::arch::x86_64::*;
    debug_assert!(chunk.len() <= 64);
    let zero = _mm256_setzero_ps();
    let mut bits = 0u64;
    let groups = chunk.chunks_exact(8);
    let tail = groups.remainder();
    for (g, group) in groups.enumerate() {
        // SAFETY: the 8 lanes of the load are `group`.
        let v = unsafe { _mm256_loadu_ps(group.as_ptr()) };
        bits |=
            u64::from(_mm256_movemask_ps(_mm256_cmp_ps::<_CMP_NEQ_UQ>(v, zero)) as u8) << (8 * g);
    }
    if !tail.is_empty() {
        // SAFETY: the enabled lanes are `tail`; masked lanes perform no
        // memory access and load +0, which leaves their bits clear.
        let v = unsafe { _mm256_maskload_ps(tail.as_ptr(), lane_mask(tail.len())) };
        let lanes = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_NEQ_UQ>(v, zero)) as u8;
        bits |= u64::from(lanes) << (chunk.len() - tail.len());
    }
    bits
}

/// One step of [`accum_tile`]: `acc[t] = fma(a, w[off + 8t ..], acc[t])` for
/// every vector of the tile, the last one masked to `last` when `MASKED`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx,fma")]
#[inline]
fn fma_step<const NV: usize, const MASKED: bool>(
    a: f32,
    w: &[f32],
    off: usize,
    last: std::arch::x86_64::__m256i,
    acc: &mut [std::arch::x86_64::__m256; NV],
) {
    use std::arch::x86_64::*;
    let av = _mm256_set1_ps(a);
    for (t, accv) in acc.iter_mut().enumerate() {
        debug_assert!(off + 8 * t < w.len());
        // SAFETY: the caller's tile lies inside row `k` of `w`: every lane of
        // an unmasked vector, and every enabled lane of the masked one, is
        // below `(k + 1) * cols <= w.len()`; masked lanes perform no access.
        let bv = unsafe {
            let p = w.as_ptr().add(off + 8 * t);
            if MASKED && t + 1 == NV {
                _mm256_maskload_ps(p, last)
            } else {
                _mm256_loadu_ps(p)
            }
        };
        *accv = _mm256_fmadd_ps(av, bv, *accv);
    }
}

/// One column tile of [`accum_rows_fma`]: `out_row[j0..]` over `NV` 8-lane
/// vectors (the last masked to `last` when `MASKED`) `+= a_row · w[.., tile]`,
/// the tile held in registers across the whole `k` loop.
///
/// The zero skip is branch-free in the data: per chunk of up to 64 `k`, a
/// bitmask of the nonzero `a_row` entries ([`nonzero_bits`]) is walked in
/// ascending `k` (`trailing_zeros`, then clear the lowest bit), so the only
/// data-dependent branch left is the loop exit.  A chunk with no zero walks
/// `k` directly, as does the whole row when `SKIP_ZEROS` is off.  Per
/// element: one fused multiply-add per nonzero `k`, `k` ascending, onto the
/// value already in `out_row` (`+0` from the matmuls) — the scalar tier's
/// sequence.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx,fma")]
fn accum_tile<const SKIP_ZEROS: bool, const NV: usize, const MASKED: bool>(
    a_row: &[f32],
    w: &[f32],
    cols: usize,
    j0: usize,
    last: std::arch::x86_64::__m256i,
    out_row: &mut [f32],
) {
    use std::arch::x86_64::*;
    debug_assert!(j0 + 8 * (NV - 1) < cols && cols == out_row.len());
    debug_assert!(MASKED || j0 + 8 * NV <= cols);
    let op = out_row.as_mut_ptr();
    let mut acc = [_mm256_setzero_ps(); NV];
    for (t, accv) in acc.iter_mut().enumerate() {
        // SAFETY: the tile's lanes (enabled lanes for the masked vector) lie
        // inside `out_row`; masked lanes perform no access.
        *accv = unsafe {
            let p = op.add(j0 + 8 * t);
            if MASKED && t + 1 == NV {
                _mm256_maskload_ps(p, last)
            } else {
                _mm256_loadu_ps(p)
            }
        };
    }
    if !SKIP_ZEROS {
        for (kk, &a) in a_row.iter().enumerate() {
            fma_step::<NV, MASKED>(a, w, kk * cols + j0, last, &mut acc);
        }
    } else {
        for (c, chunk) in a_row.chunks(64).enumerate() {
            let mut bits = nonzero_bits(chunk);
            if bits == u64::MAX >> (64 - chunk.len()) {
                for (i, &a) in chunk.iter().enumerate() {
                    fma_step::<NV, MASKED>(a, w, (64 * c + i) * cols + j0, last, &mut acc);
                }
                continue;
            }
            while bits != 0 {
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                // SAFETY: `nonzero_bits` sets bit `i` only for `i < chunk.len()`.
                let a = unsafe { *chunk.get_unchecked(i) };
                fma_step::<NV, MASKED>(a, w, (64 * c + i) * cols + j0, last, &mut acc);
            }
        }
    }
    for (t, accv) in acc.iter().enumerate() {
        // SAFETY: same lanes as the accumulator loads above.
        unsafe {
            let p = op.add(j0 + 8 * t);
            if MASKED && t + 1 == NV {
                _mm256_maskstore_ps(p, last, *accv)
            } else {
                _mm256_storeu_ps(p, *accv)
            }
        }
    }
}

/// The vector tiers' body of both matmuls: `out += a · w` for `a` (`m × k`),
/// `w` (`k × n`) and `out` (`m × n`, zeroed by the caller), skipping zero
/// `a[i][k]` when `SKIP_ZEROS`.  Each output row runs in 64-wide register
/// tiles, then one tile of the remaining 1–63 columns whose last vector is
/// masked (the TTP's 21-wide output layer is 2 full vectors plus 5 masked
/// lanes, in one pass over the bitmask).
///
/// The geometry the pointer arithmetic relies on (`a.len() == m * k`,
/// `w.len() >= k * n`, `out.len() == m * n`) is asserted in debug builds and
/// guaranteed by the matmuls' shape checks in release builds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx,fma")]
// lint: panic-free — row offsets are bounded by the m*k / m*n geometry the caller asserted
fn accum_rows_fma<const SKIP_ZEROS: bool>(
    a: &[f32],
    k: usize,
    w: &[f32],
    n: usize,
    out: &mut [f32],
) {
    debug_assert!(w.len() >= k * n && a.len() * n == out.len() * k);
    if n == 0 {
        return; // `out` is empty; chunks_exact_mut(0) would panic
    }
    let (full, rem) = (n / 64 * 64, n % 64);
    let last = lane_mask((rem + 7) % 8 + 1); // lanes of the last vector
    for (i, o) in out.chunks_exact_mut(n).enumerate() {
        let a = &a[i * k..(i + 1) * k];
        for j0 in (0..full).step_by(64) {
            accum_tile::<SKIP_ZEROS, 8, false>(a, w, n, j0, last, o);
        }
        match rem.div_ceil(8) {
            0 => {}
            1 => accum_tile::<SKIP_ZEROS, 1, true>(a, w, n, full, last, o),
            2 => accum_tile::<SKIP_ZEROS, 2, true>(a, w, n, full, last, o),
            3 => accum_tile::<SKIP_ZEROS, 3, true>(a, w, n, full, last, o),
            4 => accum_tile::<SKIP_ZEROS, 4, true>(a, w, n, full, last, o),
            5 => accum_tile::<SKIP_ZEROS, 5, true>(a, w, n, full, last, o),
            6 => accum_tile::<SKIP_ZEROS, 6, true>(a, w, n, full, last, o),
            7 => accum_tile::<SKIP_ZEROS, 7, true>(a, w, n, full, last, o),
            _ => accum_tile::<SKIP_ZEROS, 8, true>(a, w, n, full, last, o),
        }
    }
}

/// The vector tiers' body of [`Matrix::t_matmul_acc`]: `out += xᵀ · dy` for
/// `x` (`m × k`), `dy` (`m × n`) and `out` (`k × n`).  Row `r` adds
/// `x[r][i] · dy[r]` into `out` row `i` for each nonzero `x[r][i]`, walking a
/// [`nonzero_bits`] mask instead of branching per activation; `r` ascending,
/// `i` ascending within it — the scalar tier's order.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx,fma")]
// lint: panic-free — row offsets are bounded by the m*k / m*n / k*n geometry the caller asserted
fn t_matmul_acc_fma(x: &[f32], k: usize, dy: &[f32], n: usize, out: &mut [f32]) {
    if n == 0 {
        return; // `out` is empty; chunks_exact(0) would panic
    }
    for (r, dy_row) in dy.chunks_exact(n).enumerate() {
        let x_row = &x[r * k..(r + 1) * k];
        for (c, chunk) in x_row.chunks(64).enumerate() {
            let mut bits = nonzero_bits(chunk);
            while bits != 0 {
                let i = c * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                axpy_fma(x_row[i], dy_row, &mut out[i * n..(i + 1) * n]);
            }
        }
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
            // i.e. AVX and FMA are present; the shape asserts and resize fix
            // `m*k`, `k*n` and `m*n`.
            unsafe { accum_rows_fma::<true>(&self.data, k, &other.data, n, &mut out.data) };
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
        #[cfg(target_arch = "x86_64")]
        if tier != Tier::Scalar {
            // SAFETY: a non-scalar tier passed the `supported` assert above,
            // i.e. AVX and FMA are present; the asserts fix `m*k`, `m*n`, `k*n`.
            unsafe {
                t_matmul_acc_fma(&self.data, self.cols, &other.data, other.cols, &mut out.data)
            };
            return;
        }
        for r in 0..self.rows {
            let a_row = &self.data[r * self.cols..(r + 1) * self.cols];
            let b_row = other.row(r);
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                axpy_with(
                    Tier::Scalar,
                    a,
                    b_row,
                    &mut out.data[i * other.cols..(i + 1) * other.cols],
                );
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
    /// transpose `other` into `other_t` and run the column-lane row kernel of
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
            // SAFETY: a non-scalar tier passed the `supported` assert above,
            // i.e. AVX and FMA are present; `other_t` is `k × n` and `out` is
            // `m × n` after the resizes.
            unsafe {
                accum_rows_fma::<false>(
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
        // Shapes cover the 64-wide column tile, remainder tiles of 1–8
        // vectors with a masked last vector (full at cols = 8 and 16), a
        // 64-tile plus remainder (cols = 77), and k past one 64-bit mask
        // chunk (k = 70); zeros in the left matrix exercise the bitmask
        // walk, and the zero-free rows its full-chunk path.
        for (m, k, n) in [
            (1usize, 5usize, 3usize),
            (4, 21, 64),
            (10, 64, 21),
            (3, 7, 77),
            (8, 16, 16),
            (5, 3, 29),
            (12, 22, 8),
            (3, 70, 21),
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
        // compiles with AVX2+FMA: n = 19 takes a 3-vector tile with 3
        // masked lanes, n = 8 a 1-vector tile with every lane enabled,
        // n = 3 a 1-vector tile with 3; k = 1 is a one-step chain.
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
    fn negative_zero_activation_skips_infinite_weight_on_every_tier() {
        // Skipping `a == ±0` and fusing it differ exactly here: fma(-0, inf,
        // acc) is NaN, so a skipped step must leave the accumulator as it
        // was.  The -0 sits past the first 64-bit mask chunk (k = 66) and
        // beside a NaN activation, which is kept: its column turns NaN.
        let k = 66;
        let mut a = vec![1.0f32; k];
        a[65] = -0.0;
        a[3] = -0.0;
        let mut w = vec![0.5f32; k * 3];
        w[65 * 3] = f32::INFINITY;
        w[3 * 3 + 1] = f32::NEG_INFINITY;
        let (a, w) = (Matrix::from_vec(1, k, a), Matrix::from_vec(k, 3, w));
        for tier in supported_tiers() {
            let mut out = Matrix::zeros(0, 0);
            a.matmul_into_with(tier, &w, &mut out);
            assert_eq!(out.data(), &[32.0; 3], "matmul_into, tier {tier:?}");
            // xᵀ·dy: out row i += x[0][i] · dy[0]; rows 3 and 65 are skipped.
            let dy = Matrix::from_vec(1, 3, vec![f32::INFINITY, f32::NAN, 1.0]);
            let mut acc = Matrix::from_vec(k, 3, vec![2.0; k * 3]);
            a.t_matmul_acc_with(tier, &dy, &mut acc);
            for i in 0..k {
                let row = acc.row(i);
                if i == 3 || i == 65 {
                    assert_eq!(row, &[2.0; 3], "t_matmul_acc row {i}, tier {tier:?}");
                } else {
                    assert!(row[0] == f32::INFINITY && row[1].is_nan() && row[2] == 3.0);
                }
            }
        }
        // A kept NaN activation poisons every column it touches.
        let nan_row = Matrix::from_vec(1, 2, vec![f32::NAN, -0.0]);
        let w2 = Matrix::from_vec(2, 9, vec![1.0; 18]);
        for tier in supported_tiers() {
            let mut out = Matrix::zeros(0, 0);
            nan_row.matmul_into_with(tier, &w2, &mut out);
            assert!(out.data().iter().all(|v| v.is_nan()), "tier {tier:?}");
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
