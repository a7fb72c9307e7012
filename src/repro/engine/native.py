"""Optional AVX-512 kernels for the fused hot paths (int8 VNNI, fp32 pattern-sparse).

The portable integer GEMM kernels in :mod:`repro.engine.quant` go through
numpy, whose integer matmul has no SIMD backend — on most hosts it cannot beat
the float32 BLAS path it is supposed to replace — and the fp32 path multiplies
a 78 %-zero pattern-pruned weight matrix densely, because R-TOSS patterns
differ per kernel and so leave no im2col *column* empty.  This module provides
the kernels that can do better: a small C source (embedded below) compiled on
first use with the host compiler into one shared library exposing

``sconv_f32(in, in_stride, rowptr, off, val, bias, keep, tile_dst, act, slope,
out, n, oc, npos, length)``
    One fused fp32 **direct sparse convolution**: per output channel ``o`` and
    flat position ``p`` of the (zero-padded, phase-split) input plane,
    ``out[o, p] = act(bias[o] + sum_j val[j] * in[off[j] + p])`` over the CSR
    row ``rowptr[o]..rowptr[o+1]`` — the pruned weights are skipped *inside*
    the kernel, there is no im2col buffer, and bias + activation are applied
    in registers.  The layout (``off``, ``keep``, ``tile_dst``) is described
    at :meth:`repro.engine.plan.ConvPlan.direct_layout_for`.  Needs AVX-512F
    only (:func:`load_sparse_kernel`).

``bias_act_f32(buf, bias, act, slope, rows, oc, length)``
    The same bias + activation, in place and in one pass, over the output of
    a BLAS GEMM: the epilogue of the gather + GEMM path (dense layers), so a
    dense and a pruned layer differ in the convolution only — not also in
    whether SiLU is one in-register pass or five numpy passes, which made the
    two answer host contention differently.  AVX-512F only.

``qconv_vnni(x, wpack, alpha, beta, act, slope, out_kind, inv_out_scale,
out, rows, kp, op)``
    One fused quantized convolution tile: ``rows x kp`` unsigned-int8
    activation codes times a packed ``op x kp`` signed-int8 weight matrix,
    accumulated in int32 by ``vpdpbusd`` (AVX-512 VNNI), with the entire
    dequant + bias + activation (+ requantize) epilogue applied in registers
    before anything is stored.  ``out_kind`` 0 stores float32 ``(rows, op)``;
    1 stores biased uint8 codes for an int8→int8 layer edge.

The weight layout is the standard VNNI tiling ``[op/16][kp/4][16][4]``
(16 output channels x 4 reduction lanes per 64-byte vector), produced by
``w.reshape(op//16, 16, kp//4, 4).transpose(0, 2, 1, 3)``.

Design constraints:

* **Zero hard dependency.**  Everything degrades silently: no compiler, a
  compile error, a CPU without the instructions a kernel needs (checked per
  kernel at *runtime* via ``__builtin_cpu_supports``, so a binary cache copied
  to an older machine still refuses cleanly — each function is compiled for
  exactly its own ``target`` attribute, so the fp32 kernel runs on an AVX-512F
  host that lacks VNNI), or ``REPRO_NO_NATIVE=1`` all yield ``None`` from
  :func:`load_native` / :func:`load_sparse_kernel` and the caller falls back
  to the numpy kernels.
* **Build once.**  The shared library is cached under ``.cache/native/`` at
  the repository root (or the system temp dir when the tree is read-only),
  keyed by a hash of the source and compile flags; concurrent builders (e.g.
  forked serving workers warming up together) race safely through an atomic
  ``os.replace`` of a per-process temp file.
* **Determinism.**  The C SiLU uses a polynomial ``exp`` (~1e-7 relative
  accuracy), which is *not* bit-identical to numpy's, and the sparse kernel
  sums a row's products in its own (fixed, batch-independent) order.  Callers
  therefore pick a native kernel statically (available → use it), never by
  timing it against the numpy kernels: a timing race must not decide numerics.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

log = logging.getLogger(__name__)

#: Environment switch: set to a non-empty value to disable the native kernel
#: (tests use it to pin the portable numpy path).
DISABLE_ENV = "REPRO_NO_NATIVE"

#: Compile flags.  No ``-m`` switches: every function carries its own
#: ``target`` attribute, so the compiler can only emit what the matching
#: ``*_supported`` runtime check vouches for.
CFLAGS = ("-O3", "-shared", "-fPIC")

_SOURCE = r"""
#include <immintrin.h>
#include <stdint.h>

#define TARGET_F    __attribute__((target("avx512f,popcnt")))
#define TARGET_VNNI __attribute__((target("avx512f,popcnt,avx512bw,avx512vnni")))

int sconv_supported(void) {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("popcnt");
}

int igemm_supported(void) {
    return sconv_supported()
        && __builtin_cpu_supports("avx512bw")
        && __builtin_cpu_supports("avx512vnni");
}

/* Cephes-style vectorized expf, ~1e-7 relative accuracy.  The upper clamp
 * must keep the biased exponent below 255: 88.0 -> n <= 127, so the 2^n
 * scale stays finite and the Newton step in silu_ps never sees inf*0. */
static inline TARGET_F __m512 exp_ps(__m512 x) {
    const __m512 log2e  = _mm512_set1_ps(1.44269504088896341f);
    const __m512 ln2_hi = _mm512_set1_ps(0.693359375f);
    const __m512 ln2_lo = _mm512_set1_ps(-2.12194440e-4f);
    x = _mm512_min_ps(x, _mm512_set1_ps(88.0f));
    x = _mm512_max_ps(x, _mm512_set1_ps(-87.3365478515625f));
    __m512 n = _mm512_roundscale_ps(_mm512_mul_ps(x, log2e),
                                    _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    x = _mm512_fnmadd_ps(n, ln2_hi, x);
    x = _mm512_fnmadd_ps(n, ln2_lo, x);
    __m512 p = _mm512_set1_ps(1.9875691500e-4f);
    p = _mm512_fmadd_ps(p, x, _mm512_set1_ps(1.3981999507e-3f));
    p = _mm512_fmadd_ps(p, x, _mm512_set1_ps(8.3334519073e-3f));
    p = _mm512_fmadd_ps(p, x, _mm512_set1_ps(4.1665795894e-2f));
    p = _mm512_fmadd_ps(p, x, _mm512_set1_ps(1.6666665459e-1f));
    p = _mm512_fmadd_ps(p, x, _mm512_set1_ps(5.0000001201e-1f));
    p = _mm512_fmadd_ps(p, _mm512_mul_ps(x, x),
                        _mm512_add_ps(x, _mm512_set1_ps(1.0f)));
    __m512i pow2 = _mm512_slli_epi32(
        _mm512_add_epi32(_mm512_cvtps_epi32(n), _mm512_set1_epi32(127)), 23);
    return _mm512_mul_ps(p, _mm512_castsi512_ps(pow2));
}

/* x * sigmoid(x); the reciprocal is rcp14 + one Newton-Raphson step. */
static inline TARGET_F __m512 silu_ps(__m512 x) {
    __m512 d = _mm512_add_ps(exp_ps(_mm512_sub_ps(_mm512_setzero_ps(), x)),
                             _mm512_set1_ps(1.0f));
    __m512 r = _mm512_rcp14_ps(d);
    r = _mm512_mul_ps(r, _mm512_fnmadd_ps(d, r, _mm512_set1_ps(2.0f)));
    return _mm512_mul_ps(x, r);
}

/* act: 0 identity, 1 relu, 2 leaky_relu(slope), 3 silu. */
static inline TARGET_F __m512 apply_act(__m512 v, int act, __m512 slope) {
    if (act == 1) return _mm512_max_ps(v, _mm512_setzero_ps());
    if (act == 2) {
        __mmask16 neg = _mm512_cmp_ps_mask(v, _mm512_setzero_ps(), _CMP_LT_OQ);
        return _mm512_mask_mul_ps(v, neg, v, slope);
    }
    if (act == 3) return silu_ps(v);
    return v;
}

/* Fused quantized conv tile: int8 GEMM (u8 activations x packed s8 weights,
 * vpdpbusd) with the dequant+bias+activation(+requant) epilogue applied in
 * registers.  out_kind 0: float32 (rows, op); out_kind 1: u8 biased codes. */
TARGET_VNNI void qconv_vnni(const uint8_t *x, const int8_t *wpack,
                const float *alpha, const float *beta,
                int act, float slope_s, int out_kind, float inv_out_scale,
                void *out, int64_t rows, int64_t kp, int64_t op) {
    const int64_t kb = kp / 4;
    const int64_t ob = op / 16;
    const __m512 slope = _mm512_set1_ps(slope_s);
    const __m512 invs = _mm512_set1_ps(inv_out_scale);
    const __m512 bias128 = _mm512_set1_ps(128.0f);
    const __m512i lo = _mm512_set1_epi32(1), hi = _mm512_set1_epi32(255);
    float *outf = (float *)out;
    uint8_t *outq = (uint8_t *)out;
    int64_t r = 0;
    for (; r + 4 <= rows; r += 4) {
        const uint8_t *x0 = x + r * kp, *x1 = x0 + kp, *x2 = x1 + kp, *x3 = x2 + kp;
        for (int64_t b = 0; b < ob; b++) {
            const int8_t *w = wpack + b * kb * 64;
            __m512i a0 = _mm512_setzero_si512(), a1 = a0, a2 = a0, a3 = a0;
            for (int64_t k = 0; k < kb; k++) {
                const __m512i wt = _mm512_loadu_si512((const void *)(w + k * 64));
                a0 = _mm512_dpbusd_epi32(a0, _mm512_set1_epi32(*(const int32_t *)(x0 + k * 4)), wt);
                a1 = _mm512_dpbusd_epi32(a1, _mm512_set1_epi32(*(const int32_t *)(x1 + k * 4)), wt);
                a2 = _mm512_dpbusd_epi32(a2, _mm512_set1_epi32(*(const int32_t *)(x2 + k * 4)), wt);
                a3 = _mm512_dpbusd_epi32(a3, _mm512_set1_epi32(*(const int32_t *)(x3 + k * 4)), wt);
            }
            const __m512 al = _mm512_loadu_ps(alpha + b * 16);
            const __m512 be = _mm512_loadu_ps(beta + b * 16);
            __m512 v0 = apply_act(_mm512_fmadd_ps(_mm512_cvtepi32_ps(a0), al, be), act, slope);
            __m512 v1 = apply_act(_mm512_fmadd_ps(_mm512_cvtepi32_ps(a1), al, be), act, slope);
            __m512 v2 = apply_act(_mm512_fmadd_ps(_mm512_cvtepi32_ps(a2), al, be), act, slope);
            __m512 v3 = apply_act(_mm512_fmadd_ps(_mm512_cvtepi32_ps(a3), al, be), act, slope);
            if (out_kind == 0) {
                _mm512_storeu_ps(outf + r * op + b * 16, v0);
                _mm512_storeu_ps(outf + (r + 1) * op + b * 16, v1);
                _mm512_storeu_ps(outf + (r + 2) * op + b * 16, v2);
                _mm512_storeu_ps(outf + (r + 3) * op + b * 16, v3);
            } else {
                __m512i q0 = _mm512_cvtps_epi32(_mm512_fmadd_ps(v0, invs, bias128));
                __m512i q1 = _mm512_cvtps_epi32(_mm512_fmadd_ps(v1, invs, bias128));
                __m512i q2 = _mm512_cvtps_epi32(_mm512_fmadd_ps(v2, invs, bias128));
                __m512i q3 = _mm512_cvtps_epi32(_mm512_fmadd_ps(v3, invs, bias128));
                q0 = _mm512_max_epi32(_mm512_min_epi32(q0, hi), lo);
                q1 = _mm512_max_epi32(_mm512_min_epi32(q1, hi), lo);
                q2 = _mm512_max_epi32(_mm512_min_epi32(q2, hi), lo);
                q3 = _mm512_max_epi32(_mm512_min_epi32(q3, hi), lo);
                _mm_storeu_si128((__m128i *)(outq + r * op + b * 16), _mm512_cvtepi32_epi8(q0));
                _mm_storeu_si128((__m128i *)(outq + (r + 1) * op + b * 16), _mm512_cvtepi32_epi8(q1));
                _mm_storeu_si128((__m128i *)(outq + (r + 2) * op + b * 16), _mm512_cvtepi32_epi8(q2));
                _mm_storeu_si128((__m128i *)(outq + (r + 3) * op + b * 16), _mm512_cvtepi32_epi8(q3));
            }
        }
    }
    for (; r < rows; r++) {
        const uint8_t *xr = x + r * kp;
        for (int64_t b = 0; b < ob; b++) {
            const int8_t *w = wpack + b * kb * 64;
            __m512i a0 = _mm512_setzero_si512();
            for (int64_t k = 0; k < kb; k++) {
                const __m512i wt = _mm512_loadu_si512((const void *)(w + k * 64));
                a0 = _mm512_dpbusd_epi32(a0, _mm512_set1_epi32(*(const int32_t *)(xr + k * 4)), wt);
            }
            const __m512 al = _mm512_loadu_ps(alpha + b * 16);
            const __m512 be = _mm512_loadu_ps(beta + b * 16);
            __m512 v0 = apply_act(_mm512_fmadd_ps(_mm512_cvtepi32_ps(a0), al, be), act, slope);
            if (out_kind == 0) {
                _mm512_storeu_ps(outf + r * op + b * 16, v0);
            } else {
                __m512i q0 = _mm512_cvtps_epi32(_mm512_fmadd_ps(v0, invs, bias128));
                q0 = _mm512_max_epi32(_mm512_min_epi32(q0, hi), lo);
                _mm_storeu_si128((__m128i *)(outq + r * op + b * 16), _mm512_cvtepi32_epi8(q0));
            }
        }
    }
}

/* ---- fp32 direct sparse convolution ------------------------------------ */

/* Store the lanes of v selected by keep, packed, at dst; returns the next dst. */
static inline TARGET_F float *put(float *dst, __m512 v, __mmask16 keep) {
    if (keep == 0xFFFF) { _mm512_storeu_ps(dst, v); return dst + 16; }
    const unsigned cnt = (unsigned)__builtin_popcount(keep);
    _mm512_mask_storeu_ps(dst, (__mmask16)((1u << cnt) - 1u),
                          _mm512_maskz_compress_ps(keep, v));
    return dst + cnt;
}

/* acc += val[j] * in[off[j] + 16*v ...] for vector v of the tile at xt. */
#define TAP(acc, j, v) \
    acc = _mm512_fmadd_ps(_mm512_set1_ps(val[j]), _mm512_loadu_ps(xt + off[j] + 16 * (v)), acc)
#define TAPM(acc, j, v) \
    acc = _mm512_fmadd_ps(_mm512_set1_ps(val[j]), \
                          _mm512_maskz_loadu_ps(lm[v], xt + off[j] + 16 * (v)), acc)
#define ADD _mm512_add_ps
#define ACT(a) apply_act(a, act, slope)

/* out[img, o, :] = act(bias[o] + sum_j val[j] * in[img, off[j] + p]) over the
 * npos flat positions p of one image's staged input, tiles of 64 positions
 * (4 zmm accumulators) outermost so a tile's input stays in L1 across all
 * output channels.  keep (one 16-bit mask per 16 positions, NULL = all) says
 * which positions are real outputs; they are stored packed, tile t starting
 * at tile_dst[t].  The last tile loads through masks, so nothing beyond
 * in[off + npos - 1] is ever touched.  A tile that is one or two vectors wide
 * would be FMA-latency bound with one accumulator per vector, so its row is
 * split over 8 / 4 (/ 2) independent chains.  The summation order depends on
 * the tile only - never on n - so an image's result is the same in any batch. */
TARGET_F void sconv_f32(const float *in, int64_t in_stride,
                        const int32_t *rowptr, const int32_t *off, const float *val,
                        const float *bias, const uint16_t *keep, const int32_t *tile_dst,
                        int act, float slope_s, float *out,
                        int64_t n, int64_t oc, int64_t npos, int64_t length) {
    const __m512 slope = _mm512_set1_ps(slope_s);
    const __m512 z = _mm512_setzero_ps();
    const int64_t full = npos / 64;
    const int64_t rem = npos - full * 64;
    const int64_t rem_vecs = (rem + 15) / 16;
    __mmask16 lm[4] = {0, 0, 0, 0}, km[4] = {0, 0, 0, 0};
    for (int64_t v = 0; v < rem_vecs; v++) {
        const int64_t left = rem - v * 16;
        lm[v] = left >= 16 ? (__mmask16)0xFFFF : (__mmask16)((1u << left) - 1u);
        km[v] = keep ? keep[full * 4 + v] : lm[v];
    }
    for (int64_t img = 0; img < n; img++) {
        const float *x = in + img * in_stride;
        float *y = out + img * oc * length;
        for (int64_t t = 0; t < full; t++) {
            const float *xt = x + t * 64;
            const int64_t d0 = keep ? tile_dst[t] : t * 64;
            const __mmask16 k0 = keep ? keep[t * 4] : 0xFFFF, k1 = keep ? keep[t * 4 + 1] : 0xFFFF;
            const __mmask16 k2 = keep ? keep[t * 4 + 2] : 0xFFFF, k3 = keep ? keep[t * 4 + 3] : 0xFFFF;
            for (int64_t o = 0; o < oc; o++) {
                __m512 a0 = _mm512_set1_ps(bias ? bias[o] : 0.0f), a1 = a0, a2 = a0, a3 = a0;
                const int64_t j1 = rowptr[o + 1];
                for (int64_t j = rowptr[o]; j < j1; j++) {
                    TAP(a0, j, 0); TAP(a1, j, 1); TAP(a2, j, 2); TAP(a3, j, 3);
                }
                float *d = y + o * length + d0;
                d = put(d, ACT(a0), k0);
                d = put(d, ACT(a1), k1);
                d = put(d, ACT(a2), k2);
                put(d, ACT(a3), k3);
            }
        }
        if (!rem) continue;
        const float *xt = x + full * 64;
        const int64_t d0 = keep ? tile_dst[full] : full * 64;
        for (int64_t o = 0; o < oc; o++) {
            const __m512 b = _mm512_set1_ps(bias ? bias[o] : 0.0f);
            int64_t j = rowptr[o];
            const int64_t j1 = rowptr[o + 1];
            float *d = y + o * length + d0;
            if (rem_vecs == 1) {
                __m512 a0 = b, a1 = z, a2 = z, a3 = z, a4 = z, a5 = z, a6 = z, a7 = z;
                for (; j + 8 <= j1; j += 8) {
                    TAPM(a0, j, 0); TAPM(a1, j + 1, 0); TAPM(a2, j + 2, 0); TAPM(a3, j + 3, 0);
                    TAPM(a4, j + 4, 0); TAPM(a5, j + 5, 0); TAPM(a6, j + 6, 0); TAPM(a7, j + 7, 0);
                }
                for (; j < j1; j++) TAPM(a0, j, 0);
                a0 = ADD(ADD(ADD(a0, a1), ADD(a2, a3)), ADD(ADD(a4, a5), ADD(a6, a7)));
                put(d, ACT(a0), km[0]);
            } else if (rem_vecs == 2) {
                __m512 a0 = b, a1 = b, c0 = z, c1 = z, e0 = z, e1 = z, f0 = z, f1 = z;
                for (; j + 4 <= j1; j += 4) {
                    TAP(a0, j, 0); TAPM(a1, j, 1); TAP(c0, j + 1, 0); TAPM(c1, j + 1, 1);
                    TAP(e0, j + 2, 0); TAPM(e1, j + 2, 1); TAP(f0, j + 3, 0); TAPM(f1, j + 3, 1);
                }
                for (; j < j1; j++) { TAP(a0, j, 0); TAPM(a1, j, 1); }
                d = put(d, ACT(ADD(ADD(a0, c0), ADD(e0, f0))), km[0]);
                put(d, ACT(ADD(ADD(a1, c1), ADD(e1, f1))), km[1]);
            } else {
                __m512 a0 = b, a1 = b, a2 = b, a3 = b, c0 = z, c1 = z, c2 = z, c3 = z;
                for (; j + 2 <= j1; j += 2) {
                    TAP(a0, j, 0); TAP(a1, j, 1); TAPM(a2, j, 2); TAPM(a3, j, 3);
                    TAP(c0, j + 1, 0); TAP(c1, j + 1, 1); TAPM(c2, j + 1, 2); TAPM(c3, j + 1, 3);
                }
                for (; j < j1; j++) { TAP(a0, j, 0); TAP(a1, j, 1); TAPM(a2, j, 2); TAPM(a3, j, 3); }
                d = put(d, ACT(ADD(a0, c0)), km[0]);
                d = put(d, ACT(ADD(a1, c1)), km[1]);
                d = put(d, ACT(ADD(a2, c2)), km[2]);
                put(d, ACT(ADD(a3, c3)), km[3]);
            }
        }
    }
}

/* ---- fp32 GEMM epilogue ------------------------------------------------- */

/* buf[r, :] = act(buf[r, :] + bias[r % oc]) in place over rows of `length`
 * floats: the one pass over a GEMM output that gives the gather + GEMM path
 * the same in-register bias + activation the direct kernel applies, instead
 * of one numpy pass per arithmetic step.  Elementwise, so batch-independent. */
TARGET_F void bias_act_f32(float *buf, const float *bias, int act, float slope_s,
                           int64_t rows, int64_t oc, int64_t length) {
    const __m512 slope = _mm512_set1_ps(slope_s);
    const int64_t whole = length & ~(int64_t)15;
    const __mmask16 tail = (__mmask16)((1u << (length - whole)) - 1u);
    for (int64_t r = 0; r < rows; r++) {
        float *row = buf + r * length;
        const __m512 b = _mm512_set1_ps(bias ? bias[r % oc] : 0.0f);
        for (int64_t p = 0; p < whole; p += 16)
            _mm512_storeu_ps(row + p, ACT(ADD(_mm512_loadu_ps(row + p), b)));
        if (tail)
            _mm512_mask_storeu_ps(row + whole, tail,
                ACT(ADD(_mm512_maskz_loadu_ps(tail, row + whole), b)));
    }
}
"""

#: Epilogue activation codes of both kernels (module-level so the executors
#: and tests agree on the mapping).
ACT_CODES = {None: 0, "relu": 1, "leaky_relu": 2, "silu": 3}

#: ``out_kind`` values of ``qconv_vnni``.
OUT_REAL = 0
OUT_CODES = 1


class NativeQuantKernel:
    """ctypes wrapper around ``qconv_vnni`` (one per process)."""

    def __init__(self, lib: ctypes.CDLL, path: Path) -> None:
        self.path = path
        self._qconv = lib.qconv_vnni
        self._qconv.restype = None
        self._qconv.argtypes = [
            ctypes.c_void_p, ctypes.c_void_p,       # x codes, packed weights
            ctypes.c_void_p, ctypes.c_void_p,       # alpha, beta
            ctypes.c_int, ctypes.c_float,           # act, slope
            ctypes.c_int, ctypes.c_float,           # out_kind, 1/out_scale
            ctypes.c_void_p,                        # out
            ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,  # rows, kp, op
        ]

    def qconv(self, x: np.ndarray, wpack: np.ndarray,
              alpha: np.ndarray, beta: np.ndarray,
              act: Optional[str], slope: Optional[float],
              out: np.ndarray, out_scale: Optional[float]) -> None:
        """Run one fused quantized conv tile (see module docstring).

        ``x`` is ``(rows, kp)`` uint8, ``wpack`` the VNNI-tiled int8 weights,
        ``alpha``/``beta`` per-channel float32 of length ``op``; ``out`` is
        ``(rows, op)`` float32 when ``out_scale`` is None, else ``(rows, op)``
        uint8 receiving biased codes.
        """
        rows, kp = x.shape
        op = alpha.shape[0]
        out_kind = OUT_REAL if out_scale is None else OUT_CODES
        inv_scale = 0.0 if out_scale is None else 1.0 / float(out_scale)
        self._qconv(
            x.ctypes.data, wpack.ctypes.data,
            alpha.ctypes.data, beta.ctypes.data,
            ACT_CODES[act], float(slope or 0.0),
            out_kind, inv_scale,
            out.ctypes.data, rows, kp, op)


def address(array: Optional[np.ndarray], dtype) -> Optional[int]:
    """Data pointer of a packed kernel operand (``None`` -> ``NULL``).

    Taken once, when the operand is packed, because ``ndarray.ctypes`` costs
    about as much as the whole call; whoever stores the address must keep the
    array alive next to it.
    """
    if array is None:
        return None
    if array.dtype != dtype or not array.flags.c_contiguous:
        raise ValueError(f"kernel operand must be C-contiguous {np.dtype(dtype).name}, "
                         f"got {array.dtype.name} with strides {array.strides}")
    return array.ctypes.data


class SparseConvKernel:
    """ctypes wrapper around the fp32 kernels ``sconv_f32`` and ``bias_act_f32``
    (one per process)."""

    def __init__(self, lib: ctypes.CDLL, path: Path) -> None:
        self.path = path
        self._bias_act = lib.bias_act_f32
        self._bias_act.restype = None
        self._bias_act.argtypes = [
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int, ctypes.c_float,
            ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,     # rows, oc, length
        ]
        self._sconv = lib.sconv_f32
        self._sconv.restype = None
        self._sconv.argtypes = [
            ctypes.c_void_p, ctypes.c_int64,                    # in, floats per image
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,  # rowptr, off, val
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,  # bias, keep, tile_dst
            ctypes.c_int, ctypes.c_float,                       # act, slope
            ctypes.c_void_p,                                    # out
            ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        ]

    def sconv(self, x: np.ndarray, in_stride: int, npos: int,
              rowptr: int, off: int, val: int, bias: Optional[int],
              keep: Optional[int], tile_dst: Optional[int],
              act: int, slope: float, out: np.ndarray) -> None:
        """Run one direct sparse convolution over a batch (see module docstring).

        ``x`` holds ``n`` staged images of ``in_stride`` floats each and ``out``
        is ``(n, oc, out_h, out_w)``, both C-contiguous float32.  The packed
        operands come as :func:`address` values: int32 ``rowptr`` (``oc + 1``)
        and ``off`` and float32 ``val`` (one per nonzero), float32 ``bias``
        (``oc``, optional), and — when not every one of the ``npos`` flat
        positions is an output — uint16 ``keep`` (one per 16 positions) with
        int32 ``tile_dst`` (one per 64).  ``act`` is an :data:`ACT_CODES` value.
        """
        n, oc, out_h, out_w = out.shape
        if (x.dtype != np.float32 or out.dtype != np.float32
                or not x.flags.c_contiguous or not out.flags.c_contiguous
                or x.size < n * in_stride):
            raise ValueError("sconv needs C-contiguous float32 input and output "
                             f"holding {n} images of {in_stride} floats")
        self._sconv(x.ctypes.data, in_stride, rowptr, off, val, bias, keep, tile_dst,
                    act, slope, out.ctypes.data, n, oc, npos, out_h * out_w)

    def bias_act(self, buf: np.ndarray, bias: Optional[int], act: int, slope: float) -> None:
        """``buf = act(buf + bias)`` in place, one pass: the GEMM path's epilogue.

        ``buf`` is a C-contiguous float32 ``(n, oc, length)`` GEMM output,
        ``bias`` the :func:`address` of ``oc`` float32 values (optional) and
        ``act`` an :data:`ACT_CODES` value.
        """
        n, oc, length = buf.shape
        if buf.dtype != np.float32 or not buf.flags.c_contiguous:
            raise ValueError("bias_act needs a C-contiguous float32 buffer")
        self._bias_act(buf.ctypes.data, bias, act, slope, n * oc, oc, length)


_load_lock = threading.Lock()
_loaded = False
_kernel: Optional[NativeQuantKernel] = None
_sparse_kernel: Optional[SparseConvKernel] = None


def _reinit_after_fork() -> None:
    """Fork-safety for the loader lock (engine/plan.py pattern).

    A child forked while the parent is inside :func:`_load` (compiling or
    dlopen-ing the library) inherits ``_load_lock`` held and would deadlock
    on its own first load.  Only the lock is re-armed: a completed load
    (``_loaded`` and the kernels) stays valid — the dlopen'd library lives in
    the child's address space too.
    """
    global _load_lock
    _load_lock = threading.Lock()


if hasattr(os, "register_at_fork"):  # not on Windows ("spawn" children re-import)
    os.register_at_fork(after_in_child=_reinit_after_fork)


def _cache_dir() -> Path:
    """Build-cache directory: repo-root ``.cache/native`` or the temp dir."""
    try:
        root = Path(__file__).resolve().parents[3]
        candidate = root / ".cache" / "native"
        candidate.mkdir(parents=True, exist_ok=True)
        if os.access(candidate, os.W_OK):
            return candidate
    except OSError:
        pass
    fallback = Path(tempfile.gettempdir()) / f"repro-native-{os.getuid()}"
    fallback.mkdir(parents=True, exist_ok=True)
    return fallback


def _build() -> Tuple[Optional[NativeQuantKernel], Optional[SparseConvKernel]]:
    """Compile (or load from cache) the library; one wrapper per usable kernel."""
    compiler = shutil.which("gcc") or shutil.which("cc")
    if compiler is None:
        log.info("native kernels disabled: no C compiler on PATH")
        return None, None
    tag = hashlib.sha256(
        (_SOURCE + " ".join(CFLAGS)).encode()).hexdigest()[:16]
    cache = _cache_dir()
    so_path = cache / f"repro_native_{tag}.so"
    if not so_path.exists():
        src_path = cache / f"repro_native_{tag}.c"
        tmp_path = cache / f"repro_native_{tag}.{os.getpid()}.tmp.so"
        src_path.write_text(_SOURCE)
        result = subprocess.run(
            [compiler, *CFLAGS, "-o", str(tmp_path), str(src_path)],
            capture_output=True, text=True)
        if result.returncode != 0:
            log.info("native kernels disabled: compile failed: %s",
                     result.stderr.strip()[:500])
            return None, None
        # Atomic publish: concurrent builders (forked serving workers) each
        # compile to a private temp file; the last rename wins harmlessly.
        os.replace(tmp_path, so_path)
    lib = ctypes.CDLL(str(so_path))
    for check in (lib.sconv_supported, lib.igemm_supported):
        check.restype = ctypes.c_int
        check.argtypes = []
    if not lib.sconv_supported():
        log.info("native kernels disabled: CPU lacks AVX-512F")
        return None, None
    sparse = SparseConvKernel(lib, so_path)
    if not lib.igemm_supported():
        log.info("native int8 kernel disabled: CPU lacks AVX512-VNNI")
        return None, sparse
    return NativeQuantKernel(lib, so_path), sparse


def _load() -> None:
    """Build once per process; every outcome — including failure — is cached."""
    global _loaded, _kernel, _sparse_kernel
    if _loaded:
        return
    with _load_lock:
        if not _loaded:
            try:
                _kernel, _sparse_kernel = _build()
            except Exception as exc:  # noqa: BLE001 - degrade, never crash
                log.info("native kernels disabled: %s", exc)
                _kernel = _sparse_kernel = None
            _loaded = True


def load_native() -> Optional[NativeQuantKernel]:
    """The process-wide int8 VNNI kernel, or ``None`` when unavailable.

    The first call builds (or loads from cache) the shared library.
    Thread-safe.  Set ``REPRO_NO_NATIVE=1`` to force ``None``.
    """
    if os.environ.get(DISABLE_ENV):
        return None
    _load()
    return _kernel


def load_sparse_kernel() -> Optional[SparseConvKernel]:
    """The process-wide fp32 direct sparse-conv kernel, or ``None``.

    Same library, build and ``REPRO_NO_NATIVE`` switch as :func:`load_native`,
    but it only needs AVX-512F, so it also loads on hosts without VNNI.
    """
    if os.environ.get(DISABLE_ENV):
        return None
    _load()
    return _sparse_kernel


def native_available() -> bool:
    """Whether the fused VNNI int8 kernel is usable in this process."""
    return load_native() is not None


def sparse_kernel_available() -> bool:
    """Whether the fp32 direct sparse-conv kernel is usable in this process."""
    return load_sparse_kernel() is not None


def reset_native_cache() -> None:
    """Forget the cached load outcome (tests toggling ``REPRO_NO_NATIVE``)."""
    global _loaded, _kernel, _sparse_kernel
    with _load_lock:
        _loaded = False
        _kernel = _sparse_kernel = None
