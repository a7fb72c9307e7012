"""Optional AVX-512 kernels for the fused fp32 hot path (pattern-sparse convolution).

The portable fp32 path multiplies a 78 %-zero pattern-pruned weight matrix
densely, because R-TOSS patterns differ per kernel and so leave no im2col
*column* empty.  This module provides the kernels that can do better: a small
C source (embedded below) compiled on first use with the host compiler into
one shared library exposing

``sconv_call(args, n, stamps)`` -> ``sconv_f32``
    One fused fp32 **direct sparse convolution** of ``n`` images: per output
    channel ``o`` and flat position ``p`` of the (zero-padded, phase-split)
    input plane, ``out[o, p] = act(bias[o] + sum_j val[j] * in[off[j] + p])``
    over the CSR row ``rowptr[o]..rowptr[o+1]`` — the pruned weights are
    skipped *inside* the kernel, there is no im2col buffer, and bias +
    activation are applied in registers.  The planes are staged inside the
    call too.  The layout (``off``, ``keep``, ``tile_dst``) is described at
    :meth:`repro.engine.plan.ConvPlan.direct_layout_for`.  Needs AVX-512F only
    (:func:`load_sparse_kernel`).

``sconv_call(args, n, stamps)`` -> ``sconv_lanes`` (``args.lanes`` bound, ``n > 1``)
    The same convolution where one image's plane fits one vector: the
    ``n <= lane_group`` images are staged interleaved into the vector lanes
    and one walk of each CSR row serves them all, bit for bit what each image
    gets alone (docs/engine.md, "Batch-major tail").

``sconv_call(args, n, stamps)`` -> ``dconv_f32`` (``args.taps > 0``)
    The same convolution for a *dense* layer wider than 3x3 (the 6x6 / 7x7
    stems): one offset per tap instead of per nonzero, and weights packed
    ``[ceil(O/6)][K][6]`` (:meth:`SparseConvKernel.pack_dense`) so each tap's
    four input loads feed 4 x 6 register-blocked FMAs; same planes, tiles,
    packed stores and epilogue, so a stem is a step of the segment too.

``maxpool_call`` / ``concat_call`` / ``add_call`` / ``relu_call`` / ``upsample_call``
    The exact glue ops between convolutions, value for value what their numpy
    bodies in :mod:`repro.engine.fuse` compute (NaNs propagate, the pool halo
    is -inf).  They, like ``sconv_call``, are **bound steps**: every operand
    sits in an args block filled once per (arena, input shapes)
    (:class:`BoundCall`).

``run_segment(segment, images, stamps)``
    What a forward calls: a maximal run of bound steps, image by image, on
    one-image buffers that stay in cache — from the run's first one-vector
    conv on, step by step over groups of images (:class:`repro.engine.fuse.Segment`).

``bias_act_f32(buf, bias, act, slope, rows, oc, length)``
    The same bias + activation, in place and in one pass, over the output of
    a BLAS GEMM: the epilogue of the gather + GEMM path (dense 3x3 / 1x1), so a
    dense and a pruned layer differ in the convolution only — not also in
    whether SiLU is one in-register pass or five numpy passes, which made the
    two answer host contention differently.  AVX-512F only.

Design constraints:

* **Zero hard dependency.**  Everything degrades silently: no compiler, a
  compile error, a CPU without the instructions a kernel needs (checked per
  kernel at *runtime* via ``__builtin_cpu_supports``, so a binary cache copied
  to an older machine still refuses cleanly — each function is compiled for
  exactly its own ``target`` attribute), or ``REPRO_NO_NATIVE=1`` all yield
  ``None`` from :func:`load_sparse_kernel` and the caller falls back to the
  numpy kernels.
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
from typing import Optional

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
#include <math.h>
#include <stdint.h>
#include <string.h>
#include <time.h>

#define TARGET_F    __attribute__((target("avx512f,popcnt")))

int sconv_supported(void) {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("popcnt");
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

/* mask of the first `count` lanes (none for count <= 0, all from 16 up) */
static inline __mmask16 first_lanes(int64_t count) {
    return count >= 16 ? (__mmask16)0xFFFF : count <= 0 ? 0 : (__mmask16)((1u << count) - 1u);
}

/* ---- images in the lanes ------------------------------------------------ */

#define GROUP 8                             /* images that share the lanes of one call */
const int64_t lane_group = GROUP;           /* what fuse.py binds a group for */

/* One CSR row over nv (1-3) vectors of interleaved lanes at xc: 8 chains per
 * vector, bias in chain 0, the taps past the last whole 8 in chain 0 too, then
 * ((c0 + c1) + (c2 + c3)) + ((c4 + c5) + (c6 + c7)) - per lane the very order
 * of a one-vector tile, whatever g is.  Masked loads where lm says so. */
static inline __attribute__((always_inline)) TARGET_F void lanes_row(
        const float *xc, int64_t g, const int32_t *off, const float *val, int64_t j, int64_t j1,
        __m512 b, const __mmask16 *lm, const int nv, const int masked, __m512 *res) {
    __m512 a[8][3];
    for (int v = 0; v < nv; v++) {
        a[0][v] = b;
        for (int k = 1; k < 8; k++) a[k][v] = _mm512_setzero_ps();
    }
#define LOAD(src, v) (masked ? _mm512_maskz_loadu_ps(lm[v], (src) + 16 * (v)) \
                             : _mm512_loadu_ps((src) + 16 * (v)))
    for (; j + 8 <= j1; j += 8)
        for (int k = 0; k < 8; k++) {
            const __m512 w = _mm512_set1_ps(val[j + k]);
            const float *src = xc + off[j + k] * g;
            for (int v = 0; v < nv; v++) a[k][v] = _mm512_fmadd_ps(w, LOAD(src, v), a[k][v]);
        }
    for (; j < j1; j++) {
        const __m512 w = _mm512_set1_ps(val[j]);
        const float *src = xc + off[j] * g;
        for (int v = 0; v < nv; v++) a[0][v] = _mm512_fmadd_ps(w, LOAD(src, v), a[0][v]);
    }
#undef LOAD
    for (int v = 0; v < nv; v++)
        res[v] = ADD(ADD(ADD(a[0][v], a[1][v]), ADD(a[2][v], a[3][v])),
                     ADD(ADD(a[4][v], a[5][v]), ADD(a[6][v], a[7][v])));
}

/* The last tile of sconv_f32 when it is one vector wide (npos <= 16), for g
 * <= GROUP images at once: xt holds their planes interleaved, position-major
 * and image-minor (lane p * g + i is position p of image i, and tap j reads
 * xt[off[j] * g + lane]), so one val / off load feeds the npos * g lanes of the
 * whole group, three vectors at a time (24 accumulators).  Image i's positions
 * in keep0 go packed to y + i * img_stride + o * length; for g = 1 that is the
 * one vector's put. */
static TARGET_F void sconv_lanes(const float *xt, int64_t g, const int32_t *rowptr,
                                 const int32_t *off, const float *val, const float *bias,
                                 __mmask16 keep0, int act, float slope_s, float *y,
                                 int64_t img_stride, int64_t oc, int64_t npos, int64_t length) {
    const __m512 slope = _mm512_set1_ps(slope_s);
    if (g == 1) {
        const __mmask16 lm[1] = {first_lanes(npos)};
        for (int64_t o = 0; o < oc; o++) {
            __m512 a;
            lanes_row(xt, 1, off, val, rowptr[o], rowptr[o + 1],
                      _mm512_set1_ps(bias ? bias[o] : 0.0f), lm, 1, 1, &a);
            put(y + o * length, ACT(a), keep0);
        }
        return;
    }
    const int64_t lanes = npos * g, vecs = (lanes + 15) / 16;
    const __mmask16 kept = first_lanes(__builtin_popcount(keep0));
    /* lane of image 0's k-th kept position */
    const __m512i at = _mm512_mullo_epi32(_mm512_maskz_compress_epi32(keep0, _mm512_setr_epi32(
        0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)), _mm512_set1_epi32((int)g));
    float row[16 * GROUP] __attribute__((aligned(64)));       /* the lanes of one row */
    for (int64_t o = 0; o < oc; o++) {
        const __m512 b = _mm512_set1_ps(bias ? bias[o] : 0.0f);
        for (int64_t v0 = 0; v0 < vecs; v0 += 3) {
            const int64_t left = lanes - 16 * v0;
            const __mmask16 lm[3] = {first_lanes(left), first_lanes(left - 16),
                                     first_lanes(left - 32)};
            const float *xc = xt + 16 * v0;
            const int64_t j = rowptr[o], j1 = rowptr[o + 1];
            __m512 res[3] = {b, b, b};
            if (left >= 48) lanes_row(xc, g, off, val, j, j1, b, lm, 3, 0, res);
            else if (left > 32) lanes_row(xc, g, off, val, j, j1, b, lm, 3, 1, res);
            else if (left > 16) lanes_row(xc, g, off, val, j, j1, b, lm, 2, 1, res);
            else lanes_row(xc, g, off, val, j, j1, b, lm, 1, 1, res);
            for (int64_t v = 0; v < 3 && v0 + v < vecs; v++)
                _mm512_store_ps(row + 16 * (v0 + v), ACT(res[v]));
        }
        for (int64_t i = 0; i < g; i++)
            _mm512_mask_storeu_ps(y + i * img_stride + o * length, kept,
                _mm512_mask_i32gather_ps(_mm512_setzero_ps(), kept,
                                         _mm512_add_epi32(at, _mm512_set1_epi32((int)i)), row, 4));
    }
}

/* out[img, o, :] = act(bias[o] + sum_j val[j] * in[img, off[j] + p]) over the
 * npos flat positions p of one image's staged input, tiles of 64 positions
 * (4 zmm accumulators) outermost so a tile's input stays in L1 across all
 * output channels.  keep (one 16-bit mask per 16 positions, NULL = all) says
 * which positions are real outputs; they are stored packed, tile t starting
 * at tile_dst[t].  The last tile loads through masks, so nothing beyond
 * in[off + npos - 1] is ever touched.  A tile that is one or two vectors wide
 * would be FMA-latency bound with one accumulator per vector, so its row is
 * split over 8 / 4 (/ 2) independent chains (one vector: sconv_lanes, g = 1).
 * The summation order depends on the tile only - never on n - so an image's
 * result is the same in any batch. */
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
        if (rem_vecs == 1) {
            sconv_lanes(xt, 1, rowptr, off, val, bias, km[0], act, slope_s, y + d0, 0, oc, rem,
                        length);
            continue;
        }
        for (int64_t o = 0; o < oc; o++) {
            const __m512 b = _mm512_set1_ps(bias ? bias[o] : 0.0f);
            int64_t j = rowptr[o];
            const int64_t j1 = rowptr[o + 1];
            float *d = y + o * length + d0;
            if (rem_vecs == 2) {
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

/* ---- fp32 dense direct convolution -------------------------------------- */

#define DN 6                                /* output channels per register block */
const int64_t dense_block = DN;             /* what the packing in native.py reads */

#define DLOAD(v) const __m512 x##v = _mm512_loadu_ps(xt + off[k] + 16 * (v))
#define DLOADM(v) const __m512 x##v = _mm512_maskz_loadu_ps(lm[v], xt + off[k] + 16 * (v))
#define DFMA(r, i) { const __m512 w = _mm512_set1_ps(wk[i]); \
    r##0 = _mm512_fmadd_ps(w, x0, r##0); r##1 = _mm512_fmadd_ps(w, x1, r##1); \
    r##2 = _mm512_fmadd_ps(w, x2, r##2); r##3 = _mm512_fmadd_ps(w, x3, r##3); }
#define DTAPS(LOAD) for (int64_t k = 0; k < taps; k++, wk += DN) { \
    LOAD(0); LOAD(1); LOAD(2); LOAD(3); \
    DFMA(a, 0); DFMA(b, 1); DFMA(c, 2); DFMA(e, 3); DFMA(f, 4); DFMA(g, 5); }
#define DINIT(r, i) __m512 r##0 = _mm512_set1_ps(bias && o0 + i < oc ? bias[o0 + i] : 0.0f), \
    r##1 = r##0, r##2 = r##0, r##3 = r##0
#define DPUT(r, i) if (o0 + i < oc) { float *d = y + (o0 + i) * length + d0; \
    d = put(d, ACT(r##0), km[0]); d = put(d, ACT(r##1), km[1]); \
    d = put(d, ACT(r##2), km[2]); put(d, ACT(r##3), km[3]); }

/* The same output as sconv_f32 for a layer with no zeros worth skipping: every
 * tap (column) k of the weight matrix, one offset off[k] per tap, on the
 * same staged planes, tiles of 64 positions and packed stores - but register
 * blocked over DN output channels too: per tap, 4 input loads and DN weight
 * broadcasts feed 4 * DN independent accumulators.  wpk is the matrix packed
 * [ceil(oc / DN)][taps][DN], zero-padded; an exact zero is multiplied, never
 * skipped.  The last tile loads through masks, so nothing beyond
 * in[off + npos - 1] is touched.  Each output sums its taps in order,
 * one chain per position: the result of an image never depends on n. */
TARGET_F void dconv_f32(const float *in, int64_t in_stride, int64_t taps, const int32_t *off,
                        const float *wpk, const float *bias, const uint16_t *keep,
                        const int32_t *tile_dst, int act, float slope_s, float *out,
                        int64_t n, int64_t oc, int64_t npos, int64_t length) {
    const __m512 slope = _mm512_set1_ps(slope_s);
    for (int64_t img = 0; img < n; img++) {
        const float *x = in + img * in_stride;
        float *y = out + img * oc * length;
        for (int64_t t = 0; t * 64 < npos; t++) {
            const float *xt = x + t * 64;
            const int64_t d0 = keep ? tile_dst[t] : t * 64;
            __mmask16 lm[4], km[4];
            for (int v = 0; v < 4; v++) {
                lm[v] = first_lanes(npos - t * 64 - 16 * v);
                km[v] = keep ? keep[t * 4 + v] : lm[v];
            }
            for (int64_t o0 = 0; o0 < oc; o0 += DN) {
                const float *wk = wpk + o0 * taps;
                DINIT(a, 0); DINIT(b, 1); DINIT(c, 2); DINIT(e, 3); DINIT(f, 4); DINIT(g, 5);
                if (t * 64 + 64 <= npos) DTAPS(DLOAD) else DTAPS(DLOADM)
                DPUT(a, 0); DPUT(b, 1); DPUT(c, 2); DPUT(e, 3); DPUT(f, 4); DPUT(g, 5);
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
/* ---- bound calls -------------------------------------------------------- */

/* A bound call reads every operand from an args block its binding filled once
 * (native.BoundCall; the ctypes mirrors are native.ARGS: pointers, then
 * int64s, then doubles, 8 bytes each).  srcs[i] is the i-th input of this
 * forward, re-pointed by the binding only when the input array changed. */

static inline int64_t now_ns(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

typedef struct {
    const float *const *srcs; float *staged, *out, *lanes;
    const int32_t *rowptr, *off; const float *val, *bias;
    const uint16_t *keep; const int32_t *tile_dst;
    int64_t n, c, h, w, sh, sw, ph, pw, hq, wq, phase_cols, planes;
    int64_t in_stride, oc, npos, length, act, taps;
    double slope;
} sconv_args;

/* Refresh the interior of the staged planes (planes, c, hq, wq) of n images
 * from the (n, c, h, w) input: the zero-padded input, split for a strided layer
 * into its stride x stride phases (phase (a, b) holds the padded rows = a mod sh
 * and columns = b mod sw).  Flat position q of image img goes to
 * dst[img * img_step + q * step]: the staged buffer (img_step one image's
 * planes, step 1; its zero halo was written once, at allocation) or the lanes
 * of a group (img_step 1, step n: image-minor). */
static TARGET_F void stage_planes(const sconv_args *a, const float *in, int64_t n, float *dst0,
                                  int64_t img_step, int64_t step) {
    const __m512i even = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30);
    for (int64_t p = 0; p < a->planes; p++) {
        /* first input row / column of this phase, where it lands in the
         * phase plane, and how many such rows / columns fit */
        const int64_t pa = p / a->phase_cols, pb = p % a->phase_cols;
        const int64_t i0 = ((pa - a->ph) % a->sh + a->sh) % a->sh, qi = (i0 + a->ph) / a->sh;
        const int64_t j0 = ((pb - a->pw) % a->sw + a->sw) % a->sw, qj = (j0 + a->pw) / a->sw;
        int64_t ni = (a->h - i0 + a->sh - 1) / a->sh, nj = (a->w - j0 + a->sw - 1) / a->sw;
        if (ni > a->hq - qi) ni = a->hq - qi;
        if (nj > a->wq - qj) nj = a->wq - qj;
        if (ni <= 0 || nj <= 0) continue;
        for (int64_t img = 0; img < n; img++)
            for (int64_t ch = 0; ch < a->c; ch++) {
                const float *src = in + ((img * a->c + ch) * a->h + i0) * a->w + j0;
                float *dst = dst0 + img * img_step
                    + (((p * a->c + ch) * a->hq + qi) * a->wq + qj) * step;
                for (int64_t r = 0; r < ni; r++, src += a->sh * a->w, dst += a->wq * step) {
                    if (step != 1) for (int64_t x = 0; x < nj; x++) dst[x * step] = src[x * a->sw];
                    else if (a->sw == 1) memcpy(dst, src, (size_t)nj * sizeof(float));
                    else if (a->sw != 2) for (int64_t x = 0; x < nj; x++) dst[x] = src[x * a->sw];
                    else for (int64_t x = 0; x < nj; x += 16) {
                        /* every other float of the 2 * (nj - x) - 1 this block spans */
                        const int64_t span = 2 * (nj - x) - 1;
                        _mm512_mask_storeu_ps(dst + x, first_lanes(nj - x), _mm512_permutex2var_ps(
                            _mm512_maskz_loadu_ps(first_lanes(span), src + 2 * x), even,
                            _mm512_maskz_loadu_ps(first_lanes(span - 16), src + 2 * x + 16)));
                    }
                }
            }
    }
}

/* One direct convolution of n images: stage (unless the input is used in
 * place), then sconv_f32 over the CSR, or dconv_f32 over `taps` packed dense
 * columns (val is then the packed matrix and rowptr NULL).  A conv whose plane
 * fits one vector, bound for a group (lanes: a scratch of n <= lane_group
 * images' planes, shared with other convs, so its halo is zeroed per call),
 * stages several images interleaved and runs them as one sconv_lanes call.
 * stamps (NULL when untimed) receives CLOCK_MONOTONIC ns after staging and
 * after the kernel: the profiler's gather / gemm boundary. */
TARGET_F void sconv_call(const sconv_args *a, int64_t n, int64_t *stamps) {
    const float *x = a->srcs[0];
    const int64_t size = a->in_stride, grouped = a->lanes && n > 1;
    if (grouped) {
        if (a->staged) memset(a->lanes, 0, (size_t)(n * size) * sizeof(float));
        stage_planes(a, x, n, a->lanes, 1, n);
    } else if (a->staged) {
        stage_planes(a, x, n, a->staged, size, 1);
        x = a->staged;
    }
    if (stamps) stamps[0] = now_ns();
    if (grouped)
        sconv_lanes(a->lanes, n, a->rowptr, a->off, a->val, a->bias,
                    a->keep ? a->keep[0] : first_lanes(a->npos), (int)a->act, (float)a->slope,
                    a->out, a->oc * a->length, a->oc, a->npos, a->length);
    else if (a->taps)
        dconv_f32(x, size, a->taps, a->off, a->val, a->bias, a->keep, a->tile_dst,
                  (int)a->act, (float)a->slope, a->out, n, a->oc, a->npos, a->length);
    else
        sconv_f32(x, size, a->rowptr, a->off, a->val, a->bias, a->keep, a->tile_dst,
                  (int)a->act, (float)a->slope, a->out, n, a->oc, a->npos, a->length);
    if (stamps) stamps[1] = now_ns();
}

/* max that returns a NaN operand (the first, if both are), like np.maximum */
static inline TARGET_F __m512 maxn_ps(__m512 a, __m512 b) {
    return _mm512_mask_max_ps(a, _mm512_cmp_ps_mask(a, a, _CMP_ORD_Q), a, b);
}

typedef struct {
    const float *const *srcs; float *out, *scratch;
    int64_t planes, h, w, kh, kw, sh, sw, ph, pw, out_h, out_w;
} maxpool_args;

/* Window maximum per (h, w) plane, rows then columns (max is separable and
 * exact in any order).  Taps outside the plane are skipped, which is the
 * -inf halo; scratch holds one plane's (out_h, w) row maxima. */
TARGET_F void maxpool_call(const maxpool_args *a) {
    const __m512 ninf = _mm512_set1_ps(-INFINITY);
    const __m512i lane = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    const __m512i step = _mm512_mullo_epi32(lane, _mm512_set1_epi32((int)a->sw));
    for (int64_t p = 0; p < a->planes; p++) {
        const float *in = a->srcs[0] + p * a->h * a->w;
        float *out = a->out + p * a->out_h * a->out_w;
        for (int64_t y = 0; y < a->out_h; y++)
            for (int64_t x = 0; x < a->w; x += 16) {
                const __mmask16 m = first_lanes(a->w - x);
                __m512 acc = ninf;
                for (int64_t r = 0; r < a->kh; r++) {
                    const int64_t row = y * a->sh + r - a->ph;
                    if (row >= 0 && row < a->h)
                        acc = maxn_ps(acc, _mm512_mask_loadu_ps(ninf, m, in + row * a->w + x));
                }
                _mm512_mask_storeu_ps(a->scratch + y * a->w + x, m, acc);
            }
        for (int64_t y = 0; y < a->out_h; y++)
            for (int64_t x = 0; x < a->out_w; x += 16) {
                const float *row = a->scratch + y * a->w;
                const __mmask16 m = first_lanes(a->out_w - x);
                __m512 acc = ninf;
                for (int64_t q = 0; q < a->kw; q++) {
                    const int64_t first = x * a->sw + q - a->pw;
                    const __m512i col = _mm512_add_epi32(step, _mm512_set1_epi32((int)first));
                    const __mmask16 in_row = m
                        & _mm512_cmpge_epi32_mask(col, _mm512_setzero_si512())
                        & _mm512_cmplt_epi32_mask(col, _mm512_set1_epi32((int)a->w));
                    /* stride 1: the columns are adjacent, one load (lanes outside
                     * the row are masked off, so the address may lie before it) */
                    acc = maxn_ps(acc, a->sw == 1
                        ? _mm512_mask_loadu_ps(ninf, in_row, row + first)
                        : _mm512_mask_i32gather_ps(ninf, in_row, col, row, 4));
                }
                _mm512_mask_storeu_ps(out + y * a->out_w + x, m, acc);
            }
    }
}

typedef struct {
    const float *const *srcs; const int64_t *sizes; float *out;
    int64_t parts, outer, total;
} concat_args;

/* Concatenate along one axis: part k contributes sizes[k] contiguous floats
 * to each of the `outer` leading blocks of `total` output floats. */
void concat_call(const concat_args *a) {
    int64_t at = 0;
    for (int64_t k = 0; k < a->parts; at += a->sizes[k++])
        for (int64_t i = 0; i < a->outer; i++)
            memcpy(a->out + i * a->total + at, a->srcs[k] + i * a->sizes[k],
                   (size_t)a->sizes[k] * sizeof(float));
}

typedef struct { const float *const *srcs; float *out; int64_t count; } ewise_args;

TARGET_F void add_call(const ewise_args *a) {
    const float *x = a->srcs[0], *y = a->srcs[1];
    float *out = a->out;
    for (int64_t i = 0; i < a->count; i++) out[i] = x[i] + y[i];
}

/* np.maximum(x, 0): a NaN stays a NaN */
TARGET_F void relu_call(const ewise_args *a) {
    const float *x = a->srcs[0];
    float *out = a->out;
    for (int64_t i = 0; i < a->count; i++) out[i] = x[i] < 0.0f ? 0.0f : x[i];
}

typedef struct { const float *const *srcs; float *out; int64_t planes, h, w, scale; } upsample_args;

/* Nearest-neighbour upsampling: widen each input row once, 16 output columns
 * at a time, then repeat it.  Output column j + l repeats input column
 * base + (r + l) / s, where j = base * s + r and r < s; the lane permute's
 * index (r + l + 0.5) / s is computed in float, exact while s < 2^18. */
TARGET_F void upsample_call(const upsample_args *a) {
    const int64_t s = a->scale, wide = a->w * s, step = 16 / s, rest = 16 % s;
    const __m512 half = _mm512_setr_ps(0.5f, 1.5f, 2.5f, 3.5f, 4.5f, 5.5f, 6.5f, 7.5f,
                                       8.5f, 9.5f, 10.5f, 11.5f, 12.5f, 13.5f, 14.5f, 15.5f);
    const __m512 inv = _mm512_set1_ps(1.0f / (float)s);
    const float *in = a->srcs[0];
    float *out = a->out;
    for (int64_t row = 0; row < a->planes * a->h; row++, in += a->w) {
        for (int64_t j = 0, base = 0, r = 0; j < wide; j += 16) {
            const __m512i idx = _mm512_cvttps_epi32(
                _mm512_mul_ps(_mm512_add_ps(half, _mm512_set1_ps((float)r)), inv));
            _mm512_mask_storeu_ps(out + j, first_lanes(wide - j), _mm512_permutexvar_ps(
                idx, _mm512_maskz_loadu_ps(first_lanes(a->w - base), in + base)));
            base += step;
            if ((r += rest) >= s) { r -= s; base++; }
        }
        for (int64_t d = 1; d < s; d++) memcpy(out + d * wide, out, (size_t)wide * sizeof(float));
        out += s * wide;
    }
}

/* ---- segments ----------------------------------------------------------- */

/* A run of bound steps as one call (fuse.Segment fills the tables, rows of
 * int64s).  Images go through in groups of `group` (1 when the run has no
 * tail): steps before `tail` image by image, then step by step, a step flagged
 * `whole` (a conv whose plane fits one vector, bound for GROUP images) in one
 * call for the group, any other once per image.  Before it runs for image img,
 * the i-th of its group, a step aims each pointer field it reads or writes
 * through (its patches, up to its `patches` row) at bases[base] + img * stride
 * + i * lane: stride for whole-batch arrays, lane for buffers that hold a
 * group, neither for a buffer every image reuses.  After the group, the model
 * outputs are copied out of their group buffers. */
typedef struct { int64_t op; const void *args; int64_t patches, whole; } seg_step;
typedef struct { char **field; int64_t base, stride, lane; } seg_patch;
typedef struct { const char *src; int64_t base, bytes; } seg_copy;
typedef struct {
    const seg_step *steps; const seg_patch *patches; const seg_copy *copies; char *const *bases;
    int64_t nsteps, ncopies, tail, group;
} segment_args;

/* Step i for images img.. (count of them when it is `whole`, else one); with
 * stamps, adds its two ns counts since `last` (staging and kernel of a
 * convolution, the whole step and 0 for glue) and returns the time it ended. */
static int64_t run_step(const segment_args *s, int64_t i, int64_t img, int64_t lane,
                        int64_t count, int64_t *stamps, int64_t last) {
    const seg_step *step = s->steps + i;
    for (const seg_patch *p = s->patches + (i ? step[-1].patches : 0);
         p < s->patches + step->patches; p++)
        *p->field = s->bases[p->base] + img * p->stride + lane * p->lane;
    int64_t at[2];
    const void *a = step->args;
    switch (step->op) {                               /* the order of native.ARGS */
        case 0: sconv_call(a, step->whole ? count : ((const sconv_args *)a)->n,
                           stamps ? at : NULL); break;
        case 1: maxpool_call(a); break;
        case 2: concat_call(a); break;
        case 3: add_call(a); break;
        case 4: relu_call(a); break;
        case 5: upsample_call(a); break;
    }
    if (!stamps) return 0;
    if (step->op) at[0] = at[1] = now_ns();
    stamps[2 * i] += at[0] - last;
    stamps[2 * i + 1] += at[1] - at[0];
    return at[1];
}

/* stamps (NULL when untimed) sums two ns counts per step over the images. */
void run_segment(const segment_args *s, int64_t images, int64_t *stamps) {
    for (int64_t first = 0; first < images; first += s->group) {
        const int64_t count = images - first < s->group ? images - first : s->group;
        int64_t last = stamps ? now_ns() : 0;
        for (int64_t img = 0; img < count; img++)
            for (int64_t i = 0; i < s->tail; i++)
                last = run_step(s, i, first + img, img, 1, stamps, last);
        for (int64_t i = s->tail; i < s->nsteps; i++)
            if (s->steps[i].whole)
                last = run_step(s, i, first, 0, count, stamps, last);
            else for (int64_t img = 0; img < count; img++)
                last = run_step(s, i, first + img, img, 1, stamps, last);
        for (const seg_copy *c = s->copies; c < s->copies + s->ncopies; c++)
            memcpy(s->bases[c->base] + first * c->bytes, c->src, (size_t)(count * c->bytes));
    }
}

/* sizeof of each args struct, in the order of native.ARGS, for the loader to check */
const int64_t args_sizes[] = {sizeof(sconv_args), sizeof(maxpool_args), sizeof(concat_args),
                              sizeof(ewise_args), sizeof(ewise_args), sizeof(upsample_args),
                              sizeof(segment_args)};
"""

#: Epilogue activation codes of the kernels (module-level so the executors
#: and tests agree on the mapping).
ACT_CODES = {None: 0, "relu": 1, "leaky_relu": 2, "silu": 3}

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


def _args_block(pointers: str, ints: str = "", doubles: str = ""):
    """ctypes mirror of a C ``*_args`` struct: the named pointers, then int64s,
    then doubles — 8 bytes each, so the two layouts agree without padding."""
    class Args(ctypes.Structure):
        _fields_ = ([(name, ctypes.c_void_p) for name in pointers.split()]
                    + [(name, ctypes.c_int64) for name in ints.split()]
                    + [(name, ctypes.c_double) for name in doubles.split()])
    return Args


#: dtype of the array whose :func:`address` a pointer field takes.
FIELD_DTYPES = {"out": np.float32, "staged": np.float32, "lanes": np.float32,
                "scratch": np.float32, "val": np.float32, "bias": np.float32, "rowptr": np.int32, "off": np.int32,
                "tile_dst": np.int32, "keep": np.uint16, "sizes": np.int64,
                "steps": np.int64, "patches": np.int64, "copies": np.int64, "bases": np.int64}

#: Entry point -> its args block (field order is the C struct's; the loader
#: checks the sizes).  A step's position here is its opcode in ``run_segment``.
ARGS = {
    "sconv_call": _args_block(
        "srcs staged out lanes rowptr off val bias keep tile_dst",
        "n c h w sh sw ph pw hq wq phase_cols planes in_stride oc npos length act taps",
        "slope"),
    "maxpool_call": _args_block("srcs out scratch",
                                "planes h w kh kw sh sw ph pw out_h out_w"),
    "concat_call": _args_block("srcs sizes out", "parts outer total"),
    "add_call": _args_block("srcs out", "count"),
    "relu_call": _args_block("srcs out", "count"),
    "upsample_call": _args_block("srcs out", "planes h w scale"),
    "run_segment": _args_block("steps patches copies bases", "nsteps ncopies tail group"),
}


def fill(args: ctypes.Structure, fields: dict) -> int:
    """Set ``fields`` of an args block (:data:`FIELD_DTYPES` operands by
    :func:`address`); returns its address — keep ``args`` and ``fields`` alive."""
    for field, value in fields.items():
        dtype = FIELD_DTYPES.get(field)
        setattr(args, field, value if dtype is None else address(value, dtype))
    return ctypes.addressof(args)


class BoundCall:
    """One native step with every operand bound, ready to join a segment.

    Built once per (arena, input shapes) by :meth:`SparseConvKernel.bind` and
    kept *in that arena*: the args block holds raw addresses of arena buffers
    and packed operands, so the binding keeps every one of those arrays alive.
    ``srcs`` (the pointers the step reads its inputs through) and ``out_at``
    (the address of the block's ``out`` field) are what a
    :class:`repro.engine.fuse.Segment` aims per image before ``run_segment``
    runs opcode ``op`` on ``block``.
    """

    __slots__ = ("out", "op", "block", "srcs", "out_at", "_alive")

    def __init__(self, op: int, args: ctypes.Structure, inputs: int, fields: dict) -> None:
        self.srcs = (ctypes.c_void_p * inputs)()
        args.srcs = ctypes.addressof(self.srcs)
        self.op, self.block, self._alive = op, fill(args, fields), (args, fields)
        self.out = fields["out"]
        self.out_at = self.block + type(args).out.offset


class SparseConvKernel:
    """ctypes wrapper around the library's fp32 entry points (one per process):
    ``bias_act_f32`` and ``run_segment`` over the bound steps of :data:`ARGS`."""

    def __init__(self, lib: ctypes.CDLL, path: Path) -> None:
        self.path = path
        self._dense_block = ctypes.c_int64.in_dll(lib, "dense_block").value
        #: Images that share the vector lanes of a conv whose plane fits one vector.
        self.group = ctypes.c_int64.in_dll(lib, "lane_group").value
        self._bias_act = lib.bias_act_f32
        self._bias_act.restype = None
        self._bias_act.argtypes = [
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int, ctypes.c_float,
            ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,     # rows, oc, length
        ]
        self.run_segment = lib.run_segment          # (segment block, images, stamps or None)
        self.run_segment.restype = None
        self.run_segment.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p]

    def bind(self, name: str, inputs: int = 1, **fields) -> BoundCall:
        """Bind step ``name``, reading ``inputs`` inputs, to ``fields``: the rest
        of its args block — numbers as they are, the :data:`FIELD_DTYPES`
        operands (``out`` among them) as arrays, ``None`` for ``NULL``."""
        return BoundCall(list(ARGS).index(name), ARGS[name](), inputs, fields)

    def pack_dense(self, weight: np.ndarray) -> np.ndarray:
        """An ``(O, K)`` weight matrix as the dense direct kernel reads it:
        ``[ceil(O / block)][K][block]``, the last block zero-padded."""
        rows, taps = weight.shape
        block = self._dense_block
        packed = np.zeros((-(-rows // block) * block, taps), dtype=np.float32)
        packed[:rows] = weight
        return np.ascontiguousarray(packed.reshape(-1, block, taps).transpose(0, 2, 1))

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
_sparse_kernel: Optional[SparseConvKernel] = None


def _reinit_after_fork() -> None:
    """Fork-safety for the loader lock (engine/plan.py pattern).

    A child forked while the parent is inside :func:`_load` (compiling or
    dlopen-ing the library) inherits ``_load_lock`` held and would deadlock
    on its own first load.  Only the lock is re-armed: a completed load
    (``_loaded`` and the kernel) stays valid — the dlopen'd library lives in
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


def _build() -> Optional[SparseConvKernel]:
    """Compile (or load from cache) the library; its wrapper when usable."""
    compiler = shutil.which("gcc") or shutil.which("cc")
    if compiler is None:
        log.info("native kernels disabled: no C compiler on PATH")
        return None
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
            return None
        # Atomic publish: concurrent builders (forked serving workers) each
        # compile to a private temp file; the last rename wins harmlessly.
        os.replace(tmp_path, so_path)
    lib = ctypes.CDLL(str(so_path))
    lib.sconv_supported.restype = ctypes.c_int
    lib.sconv_supported.argtypes = []
    if not lib.sconv_supported():
        log.info("native kernels disabled: CPU lacks AVX-512F")
        return None
    sizes = (ctypes.c_int64 * len(ARGS)).in_dll(lib, "args_sizes")
    for (name, block), size in zip(ARGS.items(), sizes):
        if size != ctypes.sizeof(block):
            # A struct and its mirror drifted apart: no bound call is safe to make.
            log.warning("native fp32 kernels disabled: %s args block is %d bytes here, %d in "
                        "the library", name, ctypes.sizeof(block), size)
            return None
    return SparseConvKernel(lib, so_path)


def _load() -> None:
    """Build once per process; every outcome — including failure — is cached."""
    global _loaded, _sparse_kernel
    if _loaded:
        return
    with _load_lock:
        if not _loaded:
            try:
                _sparse_kernel = _build()
            except Exception as exc:  # noqa: BLE001 - degrade, never crash
                log.info("native kernels disabled: %s", exc)
                _sparse_kernel = None
            _loaded = True


def load_sparse_kernel() -> Optional[SparseConvKernel]:
    """The process-wide fp32 direct sparse-conv kernel, or ``None`` when unavailable.

    The first call builds (or loads from cache) the shared library.
    Thread-safe.  Set ``REPRO_NO_NATIVE=1`` to force ``None``.
    """
    if os.environ.get(DISABLE_ENV):
        return None
    _load()
    return _sparse_kernel


def native_available() -> bool:
    """Always ``False``: the library has no integer kernel, the engine runs fp32
    only.  Kept, like :meth:`repro.engine.CompiledModel.attach`, because the
    frozen benchmark code in ``bench/`` asks it whether to run its quantized
    arm; the fp32 kernel's probe is :func:`sparse_kernel_available`."""
    return False


def sparse_kernel_available() -> bool:
    """Whether the fp32 direct sparse-conv kernel is usable in this process."""
    return load_sparse_kernel() is not None


def reset_native_cache() -> None:
    """Forget the cached load outcome (tests toggling ``REPRO_NO_NATIVE``)."""
    global _loaded, _sparse_kernel
    with _load_lock:
        _loaded = False
        _sparse_kernel = None
