//! Vectorised Zhang–Shasha kernels (stable `core::arch` x86-64 lanes).
//!
//! # Shape: a wavefront scan, not a literal anti-diagonal sweep
//!
//! The classic way to vectorise a min/add DP is to sweep anti-diagonals —
//! cells on one diagonal depend only on the two previous diagonals, so
//! they are independent.  Measured on the Fig. 8 corpus that shape loses
//! before it starts: keyroot spans have p50 = 2–3 (the bench note's ~9 is
//! the *mean*, dragged up by a few root spans), so most per-keyroot DP
//! tables have anti-diagonals shorter than a vector, and the diagonal of a
//! row-major table is strided, which costs a gather *and* a scatter per
//! vector on hardware that has no scatter below AVX-512.  What the corpus
//! *does* have is cell mass concentrated in long rows: 87% of all DP cells
//! sit in keyroot pairs with ≥ 8 columns.  So this kernel vectorises along
//! the row and attacks the loop-carried dependency directly — which is the
//! same dependency the anti-diagonal sweep dodges, paid for once per
//! vector instead of with strided memory on every cell:
//!
//! * the row-independent candidates (`delete` from the row above,
//!   relabel-diagonal or detach-subtree) vectorise trivially;
//! * the insert chain `cur[j] = min(t[j], cur[j-1] + ins)` is a *weighted
//!   prefix-min*: `cur[j] = min over k ≤ j of t[k] + (j-k)·ins`, computed
//!   in-register with a log₂(N)-step Kogge–Stone scan (shift + add + min);
//! * the cross-vector carry folds as
//!   `carry' = min(last(scan), carry + N·ins)` — one add and one min on
//!   the critical path per *vector* of N cells, where the scalar kernel
//!   pays one add and one min per 4 cells (PR 5's unroll) and the naive
//!   loop per cell.
//!
//! Keyroot-pair *batching* (8 independent small tables per vector) was the
//! other candidate shape; it dies on address arithmetic — every cell needs
//! gathered labels, gathered `td`, and scattered `td` stores, ≥ 1.6
//! cycles/cell before doing any arithmetic.  Measured numbers and the
//! roofline that justifies all of this live in `BENCH_ted_kernel.json`
//! (see `bench/benches/ted_kernel.rs`) and DESIGN §18.
//!
//! # Safety argument (shared by both kernels)
//!
//! The kernels run on the PR 5 thread-local scratch arenas, which are
//! never zero-initialised.  Lanes may *load* stale cells — the `td`
//! column under a whole-column blend, out-of-band gathers in the banded
//! kernel — but every such lane is a validly initialised `u32` (arena
//! growth zero-fills once) whose value is discarded by a blend before it
//! can influence a stored cell.  Nothing here is undefined behaviour
//! territory: no load or store is ever out of bounds (loop bounds keep
//! full vectors inside the logical tables, scalar tails take the rest,
//! and the arenas carry `SIMD_LANE_PAD` spare cells as defence in depth).
//!
//! The prefix-min scan shifts a saturation value `SAT = u32::MAX − 7·ins`
//! into vacated lanes.  `SAT + k·ins` never wraps (by the `*_ok` width
//! checks) and never under-cuts a real candidate (`SAT` ≥ every value the
//! DP can form), so shifted-in lanes are inert.
//!
//! # u32-only, by checked dispatch
//!
//! Lanes are 16×u32 (AVX-512F), 8×u32 (AVX2) or 4×u32 (SSE4.1).
//! `exact_ok` admits a pair only when the widest intermediate the scan
//! can form — `2·(n·del + m·ins) + rel + 16·ins` — fits `u32`;
//! `within_ok` bounds the banded kernel's intermediates by
//! `2·(τ+1) + max(del, rel) + 16·ins`.  Anything wider falls back to the
//! scalar u64 kernel, so adaptivity never trades correctness.  Label
//! equality runs on pair-local u32 ids: exact symbol ids when the trees
//! share an interner table, otherwise an exact `HashMap` re-numbering of
//! the u64 content hashes — *never* a hash truncation, which could
//! collide and silently diverge from the scalar kernel's equality
//! semantics.
//!
//! Runtime dispatch (`level`) picks AVX-512F > AVX2 > SSE4.1 > scalar
//! once per process and honours the `SV_NO_SIMD=1` escape hatch.  The
//! AVX-512 tier matters because the AVX2 body is *throughput*-bound, not
//! carry-bound (the off-critical-path carry trick leaves only ~2 cycles
//! of serial work per block): 16 lanes halve the per-cell µop count and
//! mask registers absorb the blends.  Hosts without SSE4.1 (no unsigned
//! 32-bit `min` below it — emulation costs more than the scalar kernel)
//! and non-x86-64 targets run scalar.

use std::collections::HashMap;
use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
use crate::ted::SCRATCH;
use crate::ted::{CostModel, PostTree};

/// Widest lane set the production dispatch may use on this host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Level {
    None,
    Sse41,
    Avx2,
    Avx512,
}

struct Detection {
    level: Level,
    name: &'static str,
}

fn detection() -> &'static Detection {
    static DET: OnceLock<Detection> = OnceLock::new();
    DET.get_or_init(|| {
        let forced = std::env::var_os("SV_NO_SIMD").is_some_and(|v| !v.is_empty() && v != "0");
        if forced {
            return Detection { level: Level::None, name: "scalar (SV_NO_SIMD)" };
        }
        match detect() {
            Level::Avx512 => Detection { level: Level::Avx512, name: "simd-avx512f" },
            Level::Avx2 => Detection { level: Level::Avx2, name: "simd-avx2" },
            Level::Sse41 => Detection { level: Level::Sse41, name: "simd-sse4.1" },
            Level::None => Detection { level: Level::None, name: "scalar" },
        }
    })
}

#[cfg(target_arch = "x86_64")]
fn detect() -> Level {
    if is_x86_feature_detected!("avx512f") {
        Level::Avx512
    } else if is_x86_feature_detected!("avx2") {
        Level::Avx2
    } else if is_x86_feature_detected!("sse4.1") {
        Level::Sse41
    } else {
        Level::None
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> Level {
    Level::None
}

/// Cached lane level (`SV_NO_SIMD` + CPUID, resolved once per process).
pub(crate) fn level() -> Level {
    detection().level
}

/// Kernel name for operator surfaces (`svdist::active_kernel_name`).
pub(crate) fn kernel_name() -> &'static str {
    detection().name
}

/// Widest lane count any tier uses — the `*_ok` width checks budget for
/// this worst case so one check covers every dispatch level.
const MAX_N: u128 = 16;

/// Whether the exact kernel's u32 intermediates provably cannot wrap for
/// an `n`-vs-`m` pair: the `cell_width` bound plus the scan and block
/// carry's in-register slack of `N·ins`.
fn exact_ok(n: usize, m: usize, costs: CostModel) -> bool {
    if n > u32::MAX as usize || m > u32::MAX as usize {
        return false;
    }
    let w = 2 * (n as u128 * costs.delete as u128 + m as u128 * costs.insert as u128)
        + costs.relabel as u128;
    w + MAX_N * costs.insert as u128 <= u32::MAX as u128
}

/// Whether the banded kernel's u32 intermediates provably cannot wrap
/// under threshold `tau`: stored cells are clamped at `inf = τ+1`, the
/// widest candidate is a detach (`≤ 2·inf`) or a diagonal/delete
/// (`≤ inf + max(del, rel)`), the scan and block carry add at most
/// `N·ins` of in-register slack, and `SAT = u32::MAX − (N−1)·ins` must
/// stay ≥ `inf` so shifted-in scan lanes are inert.
fn within_ok(n: usize, m: usize, costs: CostModel, tau: u64) -> bool {
    if n > u32::MAX as usize || m > u32::MAX as usize {
        return false;
    }
    let inf = tau as u128 + 1;
    let (del, ins, rel) = (costs.delete as u128, costs.insert as u128, costs.relabel as u128);
    let worst = 2 * inf + del.max(rel) + MAX_N * ins;
    worst <= u32::MAX as u128 && inf + (MAX_N - 1) * ins <= u32::MAX as u128
}

/// Exact TED via lanes; `None` means "not applicable here — run the
/// scalar kernel" (no lanes, forced scalar, or a pair `exact_ok` rejects).
pub(crate) fn exact(a: &PostTree, b: &PostTree, costs: CostModel) -> Option<u64> {
    exact_at(level(), a, b, costs)
}

/// [`exact`] on the lane tier `lvl`, which the caller guarantees the CPU
/// supports.
fn exact_at(lvl: Level, a: &PostTree, b: &PostTree, costs: CostModel) -> Option<u64> {
    #[cfg(target_arch = "x86_64")]
    {
        if lvl == Level::None || !exact_ok(a.len(), b.len(), costs) {
            return None;
        }
        SCRATCH.with(|scratch| {
            let s = &mut *scratch.borrow_mut();
            // SAFETY: the matching CPU feature was detected at runtime.
            unsafe {
                Some(match lvl {
                    Level::Avx512 => exact_avx512(a, b, costs, s),
                    Level::Avx2 => exact_avx2(a, b, costs, s),
                    Level::Sse41 => exact_sse41(a, b, costs, s),
                    Level::None => unreachable!(),
                })
            }
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (lvl, a, b, costs);
        None
    }
}

/// Banded threshold TED via lanes; outer `None` means "not applicable —
/// run the scalar banded kernel", inner option is the `ted_within`
/// contract.
pub(crate) fn within(
    a: &PostTree,
    b: &PostTree,
    costs: CostModel,
    tau: u64,
) -> Option<Option<u64>> {
    within_at(level(), a, b, costs, tau)
}

/// [`within`] on the lane tier `lvl`, which the caller guarantees the CPU
/// supports.
fn within_at(
    lvl: Level,
    a: &PostTree,
    b: &PostTree,
    costs: CostModel,
    tau: u64,
) -> Option<Option<u64>> {
    #[cfg(target_arch = "x86_64")]
    {
        if lvl == Level::None || !within_ok(a.len(), b.len(), costs, tau) {
            return None;
        }
        SCRATCH.with(|scratch| {
            let s = &mut *scratch.borrow_mut();
            // SAFETY: the matching CPU feature was detected at runtime.
            unsafe {
                Some(match lvl {
                    Level::Avx512 => within_avx512(a, b, costs, tau, s),
                    Level::Avx2 => within_avx2(a, b, costs, tau, s),
                    Level::Sse41 => within_sse41(a, b, costs, tau, s),
                    Level::None => unreachable!(),
                })
            }
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (lvl, a, b, costs, tau);
        None
    }
}

/// Pair-local u32 label ids with exactly the scalar kernel's equality
/// semantics: same-table pairs compare raw symbol ids (which are u32 at
/// the interner and only stored widened), cross-table pairs get a dense
/// re-numbering of their u64 content hashes — equal id ⟺ equal u64 key,
/// no truncation, no collisions beyond what the scalar kernel already
/// accepts.
fn compress_labels(a: &PostTree, b: &PostTree, la: &mut Vec<u32>, lb: &mut Vec<u32>) {
    la.clear();
    lb.clear();
    if a.same_table(b) {
        la.extend(a.syms.iter().map(|&s| s as u32));
        lb.extend(b.syms.iter().map(|&s| s as u32));
    } else {
        let mut ids: HashMap<u64, u32> = HashMap::with_capacity(64);
        let mut intern = |k: u64| -> u32 {
            let next = ids.len() as u32;
            *ids.entry(k).or_insert(next)
        };
        la.extend(a.keys.iter().map(|&k| intern(k)));
        lb.extend(b.keys.iter().map(|&k| intern(k)));
    }
}

fn grow32(v: &mut Vec<u32>, len: usize) {
    if v.len() < len {
        v.resize(len, 0);
    }
}

// ---------------------------------------------------------------------------
// the lane abstraction and the kernels (x86-64 only)
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod lanes {
    use super::{compress_labels, grow32};
    use crate::ted::{CostModel, PostTree, Scratch, SIMD_LANE_PAD};
    use core::arch::x86_64::*;

    const MAX_LANES: usize = 16;

    /// A vector of `N` u32 lanes.  Every method is `unsafe` because it
    /// requires the matching CPU feature; the `#[target_feature]` entry
    /// points below are the only callers.  Comparisons produce an opaque
    /// `Mask` (a same-width vector on SSE/AVX2, a `__mmask16` k-register
    /// on AVX-512) consumed only by `blend`/`mask_and`.
    pub(super) trait Lanes: Copy {
        const N: usize;
        /// Lane-predicate type.
        type Mask: Copy;
        /// Precomputed constants for the prefix-min scan.
        type Scan: Copy;
        unsafe fn splat(v: u32) -> Self;
        unsafe fn loadu(p: *const u32) -> Self;
        unsafe fn storeu(p: *mut u32, v: Self);
        unsafe fn add(self, o: Self) -> Self;
        unsafe fn sub(self, o: Self) -> Self;
        unsafe fn min(self, o: Self) -> Self;
        unsafe fn cmpeq(self, o: Self) -> Self::Mask;
        unsafe fn mask_and(a: Self::Mask, b: Self::Mask) -> Self::Mask;
        /// `mask ? other : self`, per lane.
        unsafe fn blend(self, other: Self, mask: Self::Mask) -> Self;
        /// `base[idx[k]]` per lane; every index must be in bounds.
        unsafe fn gather(base: *const u32, idx: Self) -> Self;
        unsafe fn bcast_last(self) -> Self;
        unsafe fn lane0(self) -> u32;
        unsafe fn scan_consts(sat: u32, ins: u32) -> Self::Scan;
        /// Weighted prefix-min within the vector:
        /// `out[k] = min over j ≤ k of self[j] + (k−j)·ins`, with `SAT`
        /// shifted into vacated lanes.
        unsafe fn scan(self, c: &Self::Scan) -> Self;
    }

    #[derive(Clone, Copy)]
    pub(super) struct V4(__m128i);

    #[derive(Clone, Copy)]
    pub(super) struct Scan4 {
        sat1: __m128i, // [SAT, 0, 0, 0]
        sat2: __m128i, // [SAT, SAT, 0, 0]
        ins1: __m128i,
        ins2: __m128i,
    }

    impl Lanes for V4 {
        const N: usize = 4;
        type Mask = V4;
        type Scan = Scan4;

        #[inline(always)]
        unsafe fn splat(v: u32) -> V4 {
            V4(_mm_set1_epi32(v as i32))
        }
        #[inline(always)]
        unsafe fn loadu(p: *const u32) -> V4 {
            V4(_mm_loadu_si128(p as *const __m128i))
        }
        #[inline(always)]
        unsafe fn storeu(p: *mut u32, v: V4) {
            _mm_storeu_si128(p as *mut __m128i, v.0)
        }
        #[inline(always)]
        unsafe fn add(self, o: V4) -> V4 {
            V4(_mm_add_epi32(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn sub(self, o: V4) -> V4 {
            V4(_mm_sub_epi32(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn min(self, o: V4) -> V4 {
            V4(_mm_min_epu32(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn cmpeq(self, o: V4) -> V4 {
            V4(_mm_cmpeq_epi32(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn mask_and(a: V4, b: V4) -> V4 {
            V4(_mm_and_si128(a.0, b.0))
        }
        #[inline(always)]
        unsafe fn blend(self, other: V4, mask: V4) -> V4 {
            V4(_mm_blendv_epi8(self.0, other.0, mask.0))
        }
        #[inline(always)]
        unsafe fn gather(base: *const u32, idx: V4) -> V4 {
            let i0 = _mm_cvtsi128_si32(idx.0) as u32 as usize;
            let i1 = _mm_extract_epi32::<1>(idx.0) as u32 as usize;
            let i2 = _mm_extract_epi32::<2>(idx.0) as u32 as usize;
            let i3 = _mm_extract_epi32::<3>(idx.0) as u32 as usize;
            V4(_mm_set_epi32(
                *base.add(i3) as i32,
                *base.add(i2) as i32,
                *base.add(i1) as i32,
                *base.add(i0) as i32,
            ))
        }
        #[inline(always)]
        unsafe fn bcast_last(self) -> V4 {
            V4(_mm_shuffle_epi32::<0xFF>(self.0))
        }
        #[inline(always)]
        unsafe fn lane0(self) -> u32 {
            _mm_cvtsi128_si32(self.0) as u32
        }
        #[inline(always)]
        unsafe fn scan_consts(sat: u32, ins: u32) -> Scan4 {
            Scan4 {
                sat1: _mm_set_epi32(0, 0, 0, sat as i32),
                sat2: _mm_set_epi32(0, 0, sat as i32, sat as i32),
                ins1: _mm_set1_epi32(ins as i32),
                ins2: _mm_set1_epi32(ins.wrapping_mul(2) as i32),
            }
        }
        #[inline(always)]
        unsafe fn scan(self, c: &Scan4) -> V4 {
            let s0 = self.0;
            let sh1 = _mm_or_si128(_mm_slli_si128::<4>(s0), c.sat1);
            let s1 = _mm_min_epu32(s0, _mm_add_epi32(sh1, c.ins1));
            let sh2 = _mm_or_si128(_mm_slli_si128::<8>(s1), c.sat2);
            V4(_mm_min_epu32(s1, _mm_add_epi32(sh2, c.ins2)))
        }
    }

    #[derive(Clone, Copy)]
    pub(super) struct V8(__m256i);

    #[derive(Clone, Copy)]
    pub(super) struct Scan8 {
        rot1: __m256i,
        rot2: __m256i,
        rot4: __m256i,
        sat: __m256i,
        ins1: __m256i,
        ins2: __m256i,
        ins4: __m256i,
    }

    impl Lanes for V8 {
        const N: usize = 8;
        type Mask = V8;
        type Scan = Scan8;

        #[inline(always)]
        unsafe fn splat(v: u32) -> V8 {
            V8(_mm256_set1_epi32(v as i32))
        }
        #[inline(always)]
        unsafe fn loadu(p: *const u32) -> V8 {
            V8(_mm256_loadu_si256(p as *const __m256i))
        }
        #[inline(always)]
        unsafe fn storeu(p: *mut u32, v: V8) {
            _mm256_storeu_si256(p as *mut __m256i, v.0)
        }
        #[inline(always)]
        unsafe fn add(self, o: V8) -> V8 {
            V8(_mm256_add_epi32(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn sub(self, o: V8) -> V8 {
            V8(_mm256_sub_epi32(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn min(self, o: V8) -> V8 {
            V8(_mm256_min_epu32(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn cmpeq(self, o: V8) -> V8 {
            V8(_mm256_cmpeq_epi32(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn mask_and(a: V8, b: V8) -> V8 {
            V8(_mm256_and_si256(a.0, b.0))
        }
        #[inline(always)]
        unsafe fn blend(self, other: V8, mask: V8) -> V8 {
            V8(_mm256_blendv_epi8(self.0, other.0, mask.0))
        }
        #[inline(always)]
        unsafe fn gather(base: *const u32, idx: V8) -> V8 {
            V8(_mm256_i32gather_epi32::<4>(base as *const i32, idx.0))
        }
        #[inline(always)]
        unsafe fn bcast_last(self) -> V8 {
            V8(_mm256_permutevar8x32_epi32(self.0, _mm256_set1_epi32(7)))
        }
        #[inline(always)]
        unsafe fn lane0(self) -> u32 {
            _mm_cvtsi128_si32(_mm256_castsi256_si128(self.0)) as u32
        }
        #[inline(always)]
        unsafe fn scan_consts(sat: u32, ins: u32) -> Scan8 {
            Scan8 {
                rot1: _mm256_setr_epi32(7, 0, 1, 2, 3, 4, 5, 6),
                rot2: _mm256_setr_epi32(6, 7, 0, 1, 2, 3, 4, 5),
                rot4: _mm256_setr_epi32(4, 5, 6, 7, 0, 1, 2, 3),
                sat: _mm256_set1_epi32(sat as i32),
                ins1: _mm256_set1_epi32(ins as i32),
                ins2: _mm256_set1_epi32(ins.wrapping_mul(2) as i32),
                ins4: _mm256_set1_epi32(ins.wrapping_mul(4) as i32),
            }
        }
        #[inline(always)]
        unsafe fn scan(self, c: &Scan8) -> V8 {
            let s0 = self.0;
            let sh1 = _mm256_blend_epi32::<0x01>(_mm256_permutevar8x32_epi32(s0, c.rot1), c.sat);
            let s1 = _mm256_min_epu32(s0, _mm256_add_epi32(sh1, c.ins1));
            let sh2 = _mm256_blend_epi32::<0x03>(_mm256_permutevar8x32_epi32(s1, c.rot2), c.sat);
            let s2 = _mm256_min_epu32(s1, _mm256_add_epi32(sh2, c.ins2));
            let sh4 = _mm256_blend_epi32::<0x0F>(_mm256_permutevar8x32_epi32(s2, c.rot4), c.sat);
            V8(_mm256_min_epu32(s2, _mm256_add_epi32(sh4, c.ins4)))
        }
    }

    #[derive(Clone, Copy)]
    pub(super) struct V16(__m512i);

    #[derive(Clone, Copy)]
    pub(super) struct Scan16 {
        rot1: __m512i,
        rot2: __m512i,
        rot4: __m512i,
        rot8: __m512i,
        sat: __m512i,
        ins1: __m512i,
        ins2: __m512i,
        ins4: __m512i,
        ins8: __m512i,
    }

    impl Lanes for V16 {
        const N: usize = 16;
        type Mask = __mmask16;
        type Scan = Scan16;

        #[inline(always)]
        unsafe fn splat(v: u32) -> V16 {
            V16(_mm512_set1_epi32(v as i32))
        }
        #[inline(always)]
        unsafe fn loadu(p: *const u32) -> V16 {
            V16(_mm512_loadu_si512(p as *const __m512i))
        }
        #[inline(always)]
        unsafe fn storeu(p: *mut u32, v: V16) {
            _mm512_storeu_si512(p as *mut __m512i, v.0)
        }
        #[inline(always)]
        unsafe fn add(self, o: V16) -> V16 {
            V16(_mm512_add_epi32(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn sub(self, o: V16) -> V16 {
            V16(_mm512_sub_epi32(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn min(self, o: V16) -> V16 {
            V16(_mm512_min_epu32(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn cmpeq(self, o: V16) -> __mmask16 {
            _mm512_cmpeq_epu32_mask(self.0, o.0)
        }
        #[inline(always)]
        unsafe fn mask_and(a: __mmask16, b: __mmask16) -> __mmask16 {
            a & b
        }
        #[inline(always)]
        unsafe fn blend(self, other: V16, mask: __mmask16) -> V16 {
            V16(_mm512_mask_blend_epi32(mask, self.0, other.0))
        }
        #[inline(always)]
        unsafe fn gather(base: *const u32, idx: V16) -> V16 {
            V16(_mm512_i32gather_epi32::<4>(idx.0, base as *const i32))
        }
        #[inline(always)]
        unsafe fn bcast_last(self) -> V16 {
            V16(_mm512_permutexvar_epi32(_mm512_set1_epi32(15), self.0))
        }
        #[inline(always)]
        unsafe fn lane0(self) -> u32 {
            _mm_cvtsi128_si32(_mm512_castsi512_si128(self.0)) as u32
        }
        #[inline(always)]
        unsafe fn scan_consts(sat: u32, ins: u32) -> Scan16 {
            #[inline(always)]
            unsafe fn rot(by: i32) -> __m512i {
                let mut a = [0i32; 16];
                for (k, slot) in a.iter_mut().enumerate() {
                    *slot = (k as i32 - by).rem_euclid(16);
                }
                _mm512_loadu_si512(a.as_ptr() as *const __m512i)
            }
            Scan16 {
                rot1: rot(1),
                rot2: rot(2),
                rot4: rot(4),
                rot8: rot(8),
                sat: _mm512_set1_epi32(sat as i32),
                ins1: _mm512_set1_epi32(ins as i32),
                ins2: _mm512_set1_epi32(ins.wrapping_mul(2) as i32),
                ins4: _mm512_set1_epi32(ins.wrapping_mul(4) as i32),
                ins8: _mm512_set1_epi32(ins.wrapping_mul(8) as i32),
            }
        }
        #[inline(always)]
        unsafe fn scan(self, c: &Scan16) -> V16 {
            // Shift-by-k in ONE instruction: masked permute with SAT as
            // the merge source, so the vacated low lanes come out as SAT
            // without a separate blend (3 ops/step instead of 4).
            let s0 = self.0;
            let sh1 = _mm512_mask_permutexvar_epi32(c.sat, 0xFFFE, c.rot1, s0);
            let s1 = _mm512_min_epu32(s0, _mm512_add_epi32(sh1, c.ins1));
            let sh2 = _mm512_mask_permutexvar_epi32(c.sat, 0xFFFC, c.rot2, s1);
            let s2 = _mm512_min_epu32(s1, _mm512_add_epi32(sh2, c.ins2));
            let sh4 = _mm512_mask_permutexvar_epi32(c.sat, 0xFFF0, c.rot4, s2);
            let s4 = _mm512_min_epu32(s2, _mm512_add_epi32(sh4, c.ins4));
            let sh8 = _mm512_mask_permutexvar_epi32(c.sat, 0xFF00, c.rot8, s4);
            V16(_mm512_min_epu32(s4, _mm512_add_epi32(sh8, c.ins8)))
        }
    }

    /// `[1·ins, 2·ins, …, N·ins]` — the carry ramp.
    #[inline(always)]
    unsafe fn ramp_vec<L: Lanes>(ins: u32) -> L {
        let mut a = [0u32; MAX_LANES];
        for (k, slot) in a.iter_mut().enumerate().take(L::N) {
            *slot = (k as u32 + 1).wrapping_mul(ins);
        }
        L::loadu(a.as_ptr())
    }

    /// `[0, 1, …, N−1]`.
    #[inline(always)]
    unsafe fn iota_vec<L: Lanes>() -> L {
        let mut a = [0u32; MAX_LANES];
        for (k, slot) in a.iter_mut().enumerate().take(L::N) {
            *slot = k as u32;
        }
        L::loadu(a.as_ptr())
    }

    /// Unsigned `x ≤ bound`, per lane.
    #[inline(always)]
    unsafe fn le<L: Lanes>(x: L, bound: L) -> L::Mask {
        x.min(bound).cmpeq(x)
    }

    /// Band membership `|r − c|`-style test in forest coordinates:
    /// `r − c ≤ bd && c − r ≤ bi` with saturating differences.
    #[inline(always)]
    unsafe fn band_mask<L: Lanes>(r: L, c: L, bdv: L, biv: L) -> L::Mask {
        let rc = r.sub(r.min(c));
        let cr = c.sub(c.min(r));
        L::mask_and(le(rc, bdv), le(cr, biv))
    }

    // -- the exact kernel ---------------------------------------------------

    /// Per-width hoisted constants: scan tables, cost splats, the carry
    /// ramp.  Built once per tree pair for every width in the row cascade.
    struct Consts<L: Lanes> {
        sc: L::Scan,
        delv: L,
        relv: L,
        ramp: L,
        insn: L,
    }

    impl<L: Lanes> Consts<L> {
        #[inline(always)]
        unsafe fn new(del: u32, ins: u32, rel: u32) -> Consts<L> {
            // No wrap and ≥ every candidate by the `*_ok` width checks;
            // the scan shifts it in and adds ≤ (N−1)·ins on top.
            let sat = u32::MAX - (L::N as u32 - 1).wrapping_mul(ins);
            Consts {
                sc: L::scan_consts(sat, ins),
                delv: L::splat(del),
                relv: L::splat(rel),
                ramp: ramp_vec::<L>(ins),
                insn: L::splat((L::N as u32).wrapping_mul(ins)),
            }
        }
    }

    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn exact_avx512(
        a: &PostTree,
        b: &PostTree,
        costs: CostModel,
        s: &mut Scratch,
    ) -> u64 {
        exact_body::<V16, V8, V4>(a, b, costs, s)
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn exact_avx2(
        a: &PostTree,
        b: &PostTree,
        costs: CostModel,
        s: &mut Scratch,
    ) -> u64 {
        exact_body::<V8, V4, V4>(a, b, costs, s)
    }

    #[target_feature(enable = "sse4.1")]
    pub(super) unsafe fn exact_sse41(
        a: &PostTree,
        b: &PostTree,
        costs: CostModel,
        s: &mut Scratch,
    ) -> u64 {
        exact_body::<V4, V4, V4>(a, b, costs, s)
    }

    /// One full-vector block of a forest-form row: every cell detaches a
    /// whole subtree (`fd[pi][lld(j)−l2] + td[i][j]`) or deletes from the
    /// row above, then the insert chain folds via the scan.  Returns the
    /// next block's carry (all lanes = the last stored cell).
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    unsafe fn forest_block<L: Lanes>(
        row: *mut u32,
        prev: *const u32,
        pref: *const u32,
        td_row: *const u32,
        lld_col: *const u32,
        dj: usize,
        l2v: L,
        c: &Consts<L>,
        carry: L,
    ) -> L {
        let up = L::loadu(prev.add(dj)).add(c.delv);
        let pjv = L::loadu(lld_col.add(dj - 1)).sub(l2v);
        let det = L::gather(pref, pjv).add(L::loadu(td_row.add(dj - 1)));
        let t = up.min(det);
        let s = t.scan(&c.sc);
        let d = s.min(carry.add(c.ramp));
        L::storeu(row.add(dj), d);
        s.bcast_last().min(carry.add(c.insn))
    }

    /// One full-vector block of a whole row (`lld(i) == l1`): whole
    /// columns take the relabel diagonal and record a tree distance (td
    /// store via load-blend-store — only whole lanes change), forest
    /// columns take the detach candidate.  Garbage lanes (the td load at
    /// whole columns, the row-0 gather at whole columns) are valid
    /// initialised u32s discarded by the blends.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    unsafe fn whole_block<L: Lanes>(
        row: *mut u32,
        prev: *const u32,
        pref: *const u32,
        td_row: *mut u32,
        lld_col: *const u32,
        lb_col: *const u32,
        dj: usize,
        laiv: L,
        l2v: L,
        c: &Consts<L>,
        carry: L,
    ) -> L {
        let up = L::loadu(prev.add(dj)).add(c.delv);
        let lldv = L::loadu(lld_col.add(dj - 1));
        let wj = lldv.cmpeq(l2v);
        // Tree form: diagonal + (0 | relabel).
        let eq = L::loadu(lb_col.add(dj - 1)).cmpeq(laiv);
        let sub = c.relv.blend(L::splat(0), eq);
        let diag = L::loadu(prev.add(dj - 1)).add(sub);
        // Forest form: detached prefix is fd row 0 == the insert ramp.
        let pjv = lldv.sub(l2v);
        let tdv = L::loadu(td_row.add(dj - 1));
        let det = L::gather(pref, pjv).add(tdv);
        let t = up.min(det.blend(diag, wj));
        let s = t.scan(&c.sc);
        let d = s.min(carry.add(c.ramp));
        L::storeu(row.add(dj), d);
        L::storeu(td_row.add(dj - 1), tdv.blend(d, wj));
        s.bcast_last().min(carry.add(c.insn))
    }

    /// Run one lane width over a row, consuming as many full `L::N`-cell
    /// blocks as fit in `[dj, cols)`.  Returns the resumption point and
    /// the running `left` cell for the next (narrower) width or the
    /// scalar tail.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    unsafe fn exact_seg<L: Lanes>(
        c: &Consts<L>,
        l2: usize,
        row: *mut u32,
        prev: *const u32,
        pref: *const u32,
        td_row: *mut u32,
        lld_col: *const u32,
        lb_col: *const u32,
        whole: bool,
        lai: u32,
        cols: usize,
        mut dj: usize,
        mut left: u32,
    ) -> (usize, u32) {
        if dj + L::N <= cols {
            let l2v = L::splat(l2 as u32);
            let mut carry = L::splat(left);
            if whole {
                let laiv = L::splat(lai);
                while dj + L::N <= cols {
                    carry = whole_block::<L>(
                        row, prev, pref, td_row, lld_col, lb_col, dj, laiv, l2v, c, carry,
                    );
                    dj += L::N;
                }
            } else {
                while dj + L::N <= cols {
                    carry = forest_block::<L>(row, prev, pref, td_row, lld_col, dj, l2v, c, carry);
                    dj += L::N;
                }
            }
            left = carry.lane0();
        }
        (dj, left)
    }

    /// The vectorised exact Zhang–Shasha DP.  Bit-identical to
    /// `zs_dp::<u32, true>`: same tables, same candidate set per cell,
    /// min is associative-commutative over the exact same u32 values.
    ///
    /// Rows cascade through three lane widths (`L` then `M` then `S`,
    /// each consuming the full blocks that fit) before a ≤ `S::N − 1`
    /// cell scalar tail: the Fig. 8 corpus averages only ~12 columns per
    /// row, so single-width blocking would leave most cells to the tail.
    #[inline(always)]
    unsafe fn exact_body<L: Lanes, M: Lanes, S: Lanes>(
        a: &PostTree,
        b: &PostTree,
        costs: CostModel,
        s: &mut Scratch,
    ) -> u64 {
        let (n, m) = (a.len(), b.len());
        let del = costs.delete;
        let ins = costs.insert;
        let rel = costs.relabel;

        compress_labels(a, b, &mut s.la32, &mut s.lb32);
        grow32(&mut s.td32, n * m + SIMD_LANE_PAD);
        grow32(&mut s.fd32, (n + 1) * (m + 1) + SIMD_LANE_PAD);
        let la32 = s.la32.as_ptr();
        let lb32 = s.lb32.as_ptr();
        let td: *mut u32 = s.td32.as_mut_ptr();
        let fd: *mut u32 = s.fd32.as_mut_ptr();

        // Cost ramps (fd borders; fd row 0 is never materialised — readers
        // use the insert ramp directly, exactly like the scalar kernel).
        let mut del_ramp: Vec<u32> = Vec::with_capacity(n + 1);
        let mut ins_ramp: Vec<u32> = Vec::with_capacity(m + 1);
        let (mut dr, mut ir) = (0u32, 0u32);
        del_ramp.push(dr);
        ins_ramp.push(ir);
        for _ in 0..n {
            dr = dr.wrapping_add(del);
            del_ramp.push(dr);
        }
        for _ in 0..m {
            ir = ir.wrapping_add(ins);
            ins_ramp.push(ir);
        }

        let cl = Consts::<L>::new(del, ins, rel);
        let cm = Consts::<M>::new(del, ins, rel);
        let cs = Consts::<S>::new(del, ins, rel);

        for &kr1 in &a.keyroots {
            let l1 = a.lld[kr1];
            let rows = kr1 - l1 + 2;
            for &kr2 in &b.keyroots {
                let l2 = b.lld[kr2];
                let cols = kr2 - l2 + 2;
                // Not an iterator loop: `di` indexes four unrelated
                // arrays (fd rows, td rows, both ramps), not one slice.
                #[allow(clippy::needless_range_loop)]
                for di in 1..rows {
                    let i = l1 + di - 1;
                    let row = fd.add(di * cols);
                    let prev: *const u32 =
                        if di == 1 { ins_ramp.as_ptr() } else { fd.add((di - 1) * cols) };
                    let td_row = td.add(i * m + l2); // indexed by dj − 1
                    let lld_col = b.lld32.as_ptr().add(l2); // indexed by dj − 1
                    let lb_col = lb32.add(l2); // indexed by dj − 1
                    let whole = a.lld[i] == l1;
                    let pref: *const u32 =
                        if whole { ins_ramp.as_ptr() } else { fd.add((a.lld[i] - l1) * cols) };
                    // Column 0: detached-prefix gathers hit it at runtime
                    // offsets, so it must live in memory.  Writing it at
                    // row start is sound: gathers only read rows < di.
                    *row = del_ramp[di];
                    let lai = *la32.add(i);
                    let mut left = del_ramp[di];
                    let mut dj = 1usize;
                    (dj, left) = exact_seg::<L>(
                        &cl, l2, row, prev, pref, td_row, lld_col, lb_col, whole, lai, cols, dj,
                        left,
                    );
                    if M::N < L::N {
                        (dj, left) = exact_seg::<M>(
                            &cm, l2, row, prev, pref, td_row, lld_col, lb_col, whole, lai, cols,
                            dj, left,
                        );
                    }
                    if S::N < M::N {
                        (dj, left) = exact_seg::<S>(
                            &cs, l2, row, prev, pref, td_row, lld_col, lb_col, whole, lai, cols,
                            dj, left,
                        );
                    }
                    // Scalar tail (≤ S::N − 1 cells): full-vector stores
                    // here would clobber the next row's column-0 border,
                    // so the remainder runs scalar.
                    while dj < cols {
                        let lldj = *lld_col.add(dj - 1) as usize;
                        let d = if whole && lldj == l2 {
                            let sub = if *lb_col.add(dj - 1) == lai { 0 } else { rel };
                            let t = (*prev.add(dj) + del).min(*prev.add(dj - 1) + sub);
                            let d = t.min(left + ins);
                            *td_row.add(dj - 1) = d;
                            d
                        } else {
                            let det = *pref.add(lldj - l2) + *td_row.add(dj - 1);
                            let t = (*prev.add(dj) + del).min(det);
                            t.min(left + ins)
                        };
                        *row.add(dj) = d;
                        left = d;
                        dj += 1;
                    }
                }
            }
        }
        u64::from(*td.add((n - 1) * m + (m - 1)))
    }

    // -- the banded (threshold) kernel --------------------------------------

    /// `Consts` plus the band geometry splats the threshold kernel needs.
    struct BandConsts<L: Lanes> {
        c: Consts<L>,
        infv: L,
        bdv: L,
        biv: L,
        onev: L,
        iota: L,
        inf: u32,
    }

    impl<L: Lanes> BandConsts<L> {
        #[inline(always)]
        unsafe fn new(del: u32, ins: u32, rel: u32, inf: u32, bd32: u32, bi32: u32) -> Self {
            BandConsts {
                c: Consts::new(del, ins, rel),
                infv: L::splat(inf),
                bdv: L::splat(bd32),
                biv: L::splat(bi32),
                onev: L::splat(1),
                iota: iota_vec::<L>(),
                inf,
            }
        }
    }

    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn within_avx512(
        a: &PostTree,
        b: &PostTree,
        costs: CostModel,
        tau: u64,
        s: &mut Scratch,
    ) -> Option<u64> {
        within_body::<V16, V8, V4>(a, b, costs, tau, s)
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn within_avx2(
        a: &PostTree,
        b: &PostTree,
        costs: CostModel,
        tau: u64,
        s: &mut Scratch,
    ) -> Option<u64> {
        within_body::<V8, V4, V4>(a, b, costs, tau, s)
    }

    #[target_feature(enable = "sse4.1")]
    pub(super) unsafe fn within_sse41(
        a: &PostTree,
        b: &PostTree,
        costs: CostModel,
        tau: u64,
        s: &mut Scratch,
    ) -> Option<u64> {
        within_body::<V4, V4, V4>(a, b, costs, tau, s)
    }

    /// One lane width over a banded row's window `[dj, jhi]`, consuming
    /// full blocks; same contract as `exact_seg` (returns resumption
    /// point and the `inf`-clamped running `left`).
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    unsafe fn within_seg<L: Lanes>(
        bc: &BandConsts<L>,
        l2: usize,
        row: *mut u32,
        prev: *const u32,
        pref: *const u32,
        td_row: *mut u32,
        lld_col: *const u32,
        lb_col: *const u32,
        whole: bool,
        lai: u32,
        pi: usize,
        tr: usize,
        jhi: usize,
        mut dj: usize,
        mut left: u32,
    ) -> (usize, u32) {
        if dj + L::N <= jhi + 1 {
            let c = &bc.c;
            let l2v = L::splat(l2 as u32);
            let piv = L::splat(pi as u32);
            let trv = L::splat(tr as u32);
            let laiv = L::splat(lai);
            let mut carry = L::splat(left);
            while dj + L::N <= jhi + 1 {
                let up = L::loadu(prev.add(dj)).add(c.delv);
                let lldv = L::loadu(lld_col.add(dj - 1));
                let pjv = lldv.sub(l2v);
                // Detach, both parts band-clamped to inf.
                let mfd = band_mask::<L>(piv, pjv, bc.bdv, bc.biv);
                let fd_part = bc.infv.blend(L::gather(pref, pjv), mfd);
                let jv = bc.iota.add(L::splat((l2 + dj - 1) as u32));
                let tcv = jv.sub(lldv).add(bc.onev);
                let mtd = band_mask::<L>(trv, tcv, bc.bdv, bc.biv);
                let tdv = L::loadu(td_row.add(dj - 1));
                let det = fd_part.add(bc.infv.blend(tdv, mtd));
                let t = if whole {
                    let wj = lldv.cmpeq(l2v);
                    let eq = L::loadu(lb_col.add(dj - 1)).cmpeq(laiv);
                    let sub = c.relv.blend(L::splat(0), eq);
                    let diag = L::loadu(prev.add(dj - 1)).add(sub);
                    up.min(det.blend(diag, wj))
                } else {
                    up.min(det)
                };
                let sv = t.scan(&c.sc);
                let d = sv.min(carry.add(c.ramp)).min(bc.infv);
                L::storeu(row.add(dj), d);
                if whole {
                    let wj = lldv.cmpeq(l2v);
                    L::storeu(td_row.add(dj - 1), tdv.blend(d, wj));
                }
                carry = sv.bcast_last().min(carry.add(c.insn));
                dj += L::N;
            }
            left = carry.lane0().min(bc.inf);
        }
        (dj, left)
    }

    /// The vectorised banded kernel.  Where the scalar `zs_within` reads
    /// through a band-checking `fd_at` closure, this kernel materialises
    /// what that closure would answer: per row it writes column 0 (border
    /// or `inf`), the in-window cells, and `inf` pads at `jlo−1`/`jhi+1`.
    /// Windows shift by ≤ 1 per row, so the next row's `up`/`diag` loads
    /// land only on written cells or pads; detach reads are band-masked
    /// per lane (both the `fd` gather and the `td` load), with `inf`
    /// blended over out-of-band lanes.  Stored cells clamp at `inf`; the
    /// scan's unclamped intermediates only ever *exceed* the clamped
    /// chain by ≥ `inf` terms, which the final clamp absorbs — stored
    /// values are bit-identical to the scalar kernel's.
    #[inline(always)]
    unsafe fn within_body<L: Lanes, M: Lanes, S: Lanes>(
        a: &PostTree,
        b: &PostTree,
        costs: CostModel,
        tau: u64,
        s: &mut Scratch,
    ) -> Option<u64> {
        let (n, m) = (a.len(), b.len());
        let del = costs.delete;
        let ins = costs.insert;
        let rel = costs.relabel;
        let inf = (tau + 1) as u32; // within_ok: fits
        let bd = tau.checked_div(u64::from(del)).unwrap_or(u64::MAX);
        let bi = tau.checked_div(u64::from(ins)).unwrap_or(u64::MAX);
        let bd32 = bd.min(u64::from(u32::MAX)) as u32;
        let bi32 = bi.min(u64::from(u32::MAX)) as u32;
        let in_band = |r: u64, c: u64| r.saturating_sub(c) <= bd && c.saturating_sub(r) <= bi;

        compress_labels(a, b, &mut s.la32, &mut s.lb32);
        grow32(&mut s.td32, n * m + SIMD_LANE_PAD);
        grow32(&mut s.fd32, (n + 1) * (m + 1) + SIMD_LANE_PAD);
        let la32 = s.la32.as_ptr();
        let lb32 = s.lb32.as_ptr();
        let td: *mut u32 = s.td32.as_mut_ptr();
        let fd: *mut u32 = s.fd32.as_mut_ptr();

        // within_ok: sat ≥ inf; each width's scan adds ≤ (N−1)·ins on top.
        let bcl = BandConsts::<L>::new(del, ins, rel, inf, bd32, bi32);
        let bcm = BandConsts::<M>::new(del, ins, rel, inf, bd32, bi32);
        let bcs = BandConsts::<S>::new(del, ins, rel, inf, bd32, bi32);

        for &kr1 in &a.keyroots {
            let l1 = a.lld[kr1];
            let rows = kr1 - l1 + 2;
            for &kr2 in &b.keyroots {
                let l2 = b.lld[kr2];
                let cols = kr2 - l2 + 2;
                // Row 0, window [0, r0hi] plus right pad (the scalar
                // kernel computes these on the fly in `fd_at`).
                let r0hi = bi.min((cols - 1) as u64) as usize;
                for c in 0..=r0hi {
                    *fd.add(c) = (c as u64 * u64::from(ins)) as u32;
                }
                if r0hi + 1 < cols {
                    *fd.add(r0hi + 1) = inf;
                }
                for di in 1..rows {
                    // Rows only move further below the band; once this
                    // row's window is empty all later rows' are too.
                    if (di as u64).saturating_sub(bd) > (cols - 1) as u64 {
                        break;
                    }
                    let jlo = if (di as u64) > bd { (di as u64 - bd) as usize } else { 1 }.max(1);
                    let jhi = (di as u64).saturating_add(bi).min((cols - 1) as u64) as usize;
                    let i = l1 + di - 1;
                    let row = fd.add(di * cols);
                    let prev = fd.add((di - 1) * cols) as *const u32;
                    // Column 0 border and band-edge pads.
                    *row =
                        if (di as u64) <= bd { (di as u64 * u64::from(del)) as u32 } else { inf };
                    if jlo > 1 {
                        *row.add(jlo - 1) = inf;
                    }
                    if jhi + 1 < cols {
                        *row.add(jhi + 1) = inf;
                    }
                    let td_row = td.add(i * m + l2); // indexed by dj − 1
                    let lld_col = b.lld32.as_ptr().add(l2); // indexed by dj − 1
                    let lb_col = lb32.add(l2); // indexed by dj − 1
                    let whole = a.lld[i] == l1;
                    let pi = a.lld[i] - l1;
                    let pref: *const u32 = fd.add(pi * cols);
                    let tr = i - a.lld[i] + 1;
                    let lai = *la32.add(i);
                    let mut left: u32 = if jlo == 1 { *row } else { inf };
                    let mut dj = jlo;
                    // Width cascade over the row's window (see `exact_body`).
                    (dj, left) = within_seg::<L>(
                        &bcl, l2, row, prev, pref, td_row, lld_col, lb_col, whole, lai, pi, tr,
                        jhi, dj, left,
                    );
                    if M::N < L::N {
                        (dj, left) = within_seg::<M>(
                            &bcm, l2, row, prev, pref, td_row, lld_col, lb_col, whole, lai, pi, tr,
                            jhi, dj, left,
                        );
                    }
                    if S::N < M::N {
                        (dj, left) = within_seg::<S>(
                            &bcs, l2, row, prev, pref, td_row, lld_col, lb_col, whole, lai, pi, tr,
                            jhi, dj, left,
                        );
                    }
                    while dj <= jhi {
                        let j = l2 + dj - 1;
                        let lldj = *lld_col.add(dj - 1) as usize;
                        let up = *prev.add(dj) + del;
                        let lf = left + ins;
                        let d = if whole && lldj == l2 {
                            let sub = if *lb_col.add(dj - 1) == lai { 0 } else { rel };
                            let diag = *prev.add(dj - 1) + sub;
                            let d = up.min(lf).min(diag).min(inf);
                            *td_row.add(dj - 1) = d;
                            d
                        } else {
                            let pjv = lldj - l2;
                            let tc = j - lldj + 1;
                            let fval =
                                if in_band(pi as u64, pjv as u64) { *pref.add(pjv) } else { inf };
                            let tval = if in_band(tr as u64, tc as u64) {
                                *td_row.add(dj - 1)
                            } else {
                                inf
                            };
                            up.min(lf).min(fval + tval).min(inf)
                        };
                        *row.add(dj) = d;
                        left = d;
                        dj += 1;
                    }
                }
            }
        }
        let d = if in_band(n as u64, m as u64) { *td.add((n - 1) * m + (m - 1)) } else { inf };
        let d = u64::from(d);
        (d <= tau).then_some(d)
    }

    /// Lane-primitive reference checks: each tier's scan / gather / blend
    /// / broadcast is validated against scalar arithmetic, independently
    /// of the DP bodies, so a miscompiled or misused intrinsic fails here
    /// with lane-level detail instead of as a wrong distance.
    #[cfg(test)]
    mod lane_tests {
        use super::*;

        const T: [u32; 16] = [71, 31, 91, 11, 81, 21, 61, 41, 111, 1, 51, 101, 121, 32, 22, 92];

        unsafe fn check_lanes<L: Lanes>(ins: u32) {
            let sat = u32::MAX - (L::N as u32 - 1) * ins;
            let sc = L::scan_consts(sat, ins);
            let v = L::loadu(T.as_ptr());
            let s = v.scan(&sc);
            let mut out = [0u32; 16];
            L::storeu(out.as_mut_ptr(), s);
            for k in 0..L::N {
                let expect = (0..=k).map(|j| T[j] + (k - j) as u32 * ins).min().unwrap();
                assert_eq!(out[k], expect, "scan lane {k} of N={} ins={ins}", L::N);
            }
            let mut bb = [0u32; 16];
            L::storeu(bb.as_mut_ptr(), s.bcast_last());
            assert!(bb[..L::N].iter().all(|&x| x == out[L::N - 1]), "bcast_last");
            assert_eq!(s.lane0(), out[0], "lane0");

            let base: Vec<u32> = (0..64u32).map(|i| i * 3 + 5).collect();
            let idx: Vec<u32> = (0..16u32).map(|k| (k * 7 + 3) % 64).collect();
            let mut gg = [0u32; 16];
            L::storeu(gg.as_mut_ptr(), L::gather(base.as_ptr(), L::loadu(idx.as_ptr())));
            for k in 0..L::N {
                assert_eq!(gg[k], base[idx[k] as usize], "gather lane {k}");
            }

            let m = L::loadu(idx.as_ptr()).cmpeq(L::splat(idx[1]));
            let mut bo = [0u32; 16];
            L::storeu(bo.as_mut_ptr(), L::splat(111).blend(L::splat(222), m));
            for k in 0..L::N {
                let expect = if idx[k] == idx[1] { 222 } else { 111 };
                assert_eq!(bo[k], expect, "blend lane {k}");
            }

            // band_mask: rows 0..N vs a fixed column, bd=2, bi=3.
            let rows: Vec<u32> = (0..16u32).collect();
            let mask =
                band_mask::<L>(L::loadu(rows.as_ptr()), L::splat(4), L::splat(2), L::splat(3));
            let mut mb = [0u32; 16];
            L::storeu(mb.as_mut_ptr(), L::splat(0).blend(L::splat(1), mask));
            for k in 0..L::N {
                let r = k as i64;
                let expect = u32::from(r - 4 <= 2 && 4 - r <= 3);
                assert_eq!(mb[k], expect, "band_mask lane {k}");
            }
        }

        #[test]
        fn lane_primitives_match_reference() {
            if is_x86_feature_detected!("sse4.1") {
                unsafe {
                    check_lanes::<V4>(1);
                    check_lanes::<V4>(3);
                }
            }
            if is_x86_feature_detected!("avx2") {
                unsafe {
                    check_lanes::<V8>(1);
                    check_lanes::<V8>(3);
                }
            }
            if is_x86_feature_detected!("avx512f") {
                unsafe {
                    check_lanes::<V16>(1);
                    check_lanes::<V16>(3);
                }
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
use lanes::{exact_avx2, exact_avx512, exact_sse41, within_avx2, within_avx512, within_sse41};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_is_consistent() {
        // One cached decision: the name must agree with the level.
        let name = kernel_name();
        match level() {
            Level::Avx512 => assert_eq!(name, "simd-avx512f"),
            Level::Avx2 => assert_eq!(name, "simd-avx2"),
            Level::Sse41 => assert_eq!(name, "simd-sse4.1"),
            Level::None => assert!(name.starts_with("scalar"), "{name}"),
        }
    }

    /// Every lane tier this CPU supports, narrowest first.
    fn host_tiers() -> Vec<Level> {
        #[cfg(target_arch = "x86_64")]
        {
            [
                (Level::Sse41, is_x86_feature_detected!("sse4.1")),
                (Level::Avx2, is_x86_feature_detected!("avx2")),
                (Level::Avx512, is_x86_feature_detected!("avx512f")),
            ]
            .into_iter()
            .filter_map(|(lvl, ok)| ok.then_some(lvl))
            .collect()
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            Vec::new()
        }
    }

    #[test]
    fn every_host_tier_matches_the_scalar_kernels() {
        // Production dispatch only ever runs the widest tier, so each
        // narrower tier's full exact and banded kernels are checked here,
        // against the scalar `Full` and `zs_within` kernels.  The wide-fan
        // pairs reach the 16-lane blocks; the random pairs mix short rows
        // and non-unit costs.
        use crate::ted::tests::bushy;
        use crate::ted::{ted_with_mode, ted_within_with_mode, KernelMode, Strategy};
        use rand::{rngs::StdRng, Rng, SeedableRng};
        use svtree::Tree;

        let unit = [CostModel::UNIT];
        let mixed = [CostModel::UNIT, CostModel { delete: 2, insert: 3, relabel: 5 }];
        let mut cases: Vec<(Tree, Tree, &[CostModel])> = vec![
            (bushy(900, 40, "p"), bushy(900, 37, "q"), &unit),
            (bushy(900, 23, "p"), bushy(900, 61, "q"), &unit),
        ];
        let mut rng = StdRng::seed_from_u64(11);
        let mut random_tree = |n: usize| {
            let mut t = Tree::leaf("r");
            let mut ids = vec![t.root().unwrap()];
            for _ in 1..n {
                let parent = ids[rng.gen_range(0..ids.len())];
                ids.push(t.push_child(parent, ["a", "b", "c", "d"][rng.gen_range(0..4)], None));
            }
            t
        };
        for _ in 0..16 {
            cases.push((random_tree(60), random_tree(45), &mixed));
        }
        let tiers = host_tiers();
        for (a, b, costs) in &cases {
            let (pa, pb) = (PostTree::build(a, false), PostTree::build(b, false));
            for &c in costs.iter() {
                let exact = ted_with_mode(a, b, c, Strategy::Left, KernelMode::Full);
                for &lvl in &tiers {
                    assert_eq!(exact_at(lvl, &pa, &pb, c), Some(exact), "{lvl:?} {c:?}");
                }
                for tau in [0, exact.saturating_sub(1), exact, exact + 1, 2 * exact + 3] {
                    let want = ted_within_with_mode(a, b, c, Strategy::Left, tau, KernelMode::Full);
                    assert_eq!(want, (exact <= tau).then_some(exact), "scalar banded, tau={tau}");
                    for &lvl in &tiers {
                        let got = within_at(lvl, &pa, &pb, c, tau);
                        assert_eq!(got, Some(want), "{lvl:?} {c:?} tau={tau}");
                    }
                }
            }
        }
    }

    #[test]
    fn width_checks_reject_wrapping_pairs() {
        // Unit costs: any realistic pair qualifies.
        assert!(exact_ok(10_000, 10_000, CostModel::UNIT));
        // The PR 3 overflow class: u32::MAX costs must fall back.
        let extreme = CostModel { delete: u32::MAX, insert: u32::MAX, relabel: 1 };
        assert!(!exact_ok(3, 1, extreme));
        assert!(!within_ok(3, 1, extreme, u64::from(u32::MAX)));
        // Banded: tau near u32::MAX forces the scalar u64 kernel; small
        // taus under unit costs are fine.
        assert!(within_ok(1000, 1000, CostModel::UNIT, 64));
        assert!(!within_ok(1000, 1000, CostModel::UNIT, u64::from(u32::MAX)));
    }

    #[test]
    fn label_compression_is_exact() {
        use svtree::Tree;
        // Cross-table: two trees with their own interners; equal labels
        // must compress to equal ids, distinct labels to distinct ids.
        let a = PostTree::build(&Tree::from_sexpr("(f a b a)").unwrap(), false);
        let b = PostTree::build(&Tree::from_sexpr("(f b c)").unwrap(), false);
        assert!(!a.same_table(&b));
        let (mut la, mut lb) = (Vec::new(), Vec::new());
        compress_labels(&a, &b, &mut la, &mut lb);
        // Post-order of a: [a, b, a, f]; of b: [b, c, f].
        assert_eq!(la[0], la[2], "repeated label must share an id");
        assert_eq!(la[1], lb[0], "cross-tree equal labels must share an id");
        assert_eq!(la[3], lb[2], "cross-tree equal labels must share an id");
        assert_ne!(lb[1], la[0]);
        assert_ne!(lb[1], la[1]);
        assert_ne!(lb[1], la[3]);
    }
}
