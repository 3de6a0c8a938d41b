"""C kernel backend: runtime-compiled fused ADMM iterations.

This is the compiled backend that is actually available on a stock CPython +
C-toolchain box (the numba backend in :mod:`repro.tinympc.compiled_numba`
needs an extra package).  At first use it *generates* a C translation unit
with the problem shape baked in as compile-time constants (``NX``/``NU``/
``NH`` — the Exo/SYS_ATL lesson: at TinyMPC's tensor sizes, specialization
is where the speed lives), builds it with the system C compiler into a
shared library cached on disk by content hash, and calls it through cffi's
ABI mode.  One ``admm_iteration`` then costs two foreign calls (prelude +
backward pass) instead of ~10 numpy ufunc/GEMV dispatches x N horizon
steps, and a whole batched solve costs one: ``solve_rows_f64`` runs each
requesting row's prelude/backward loop until that row terminates (see
:meth:`CKernels.solve_rows` and ``docs/perf.md``).

Numerical contract
------------------

* Every matrix-vector product uses **axpy ordering**: ``out[j]`` accumulates
  ``in[k] * W[k][j]`` for ``k = 0..K-1`` sequentially — the same per-element
  accumulation order as the naive reference's dot products — while
  vectorizing over ``j``.  Vectorizing the *independent* output lane never
  reassociates an individual sum, so the compiled result is deterministic
  and matches a sequential C loop bit for bit.
* The build forces ``-ffp-contract=off``: no fused multiply-add contraction,
  so every multiply and add rounds exactly like the numpy reference ops.
  What remains vs. the numpy fast path is only BLAS's (unspecified) dot
  accumulation order — bounded by the standard ``(K-1) * eps * sum|terms|``
  reordering bound and pinned by
  ``tests/tinympc/test_kernel_bitequality_props.py``.
* Elementwise kernels (slack, dual, the rho updates, residual reductions,
  the v/z copies) perform the identical operations in the identical order
  as the numpy kernels and are **bit-for-bit** equal, NaN semantics
  included (clips and maxima propagate NaN exactly like
  ``np.maximum``/``ndarray.max``).
* The ``r @ Kinf`` hoist of the backward pass is enabled on *both* layouts
  here — unlike the numpy scalar path (see
  :func:`repro.tinympc.kernels._verify_fused_kr`), the loop order is
  explicit C, so hoisting the per-step products is literally the same
  instruction sequence and cannot change a bit.

float32 mode
------------

``SolverSettings(dtype="float32")`` routes to ``_f32`` entry points.  The
float64 workspace stays the source of truth: each call converts state into
a structure-of-arrays float32 scratch block, iterates in float32, and
widens the results back.  Both conversions are exact (every float32 value
is exactly representable in float64), so this is numerically identical to
keeping a persistent float32 workspace — while warm starts, freeze/restore
masking, and slot export/import keep operating on the float64 arrays they
already know.  Accuracy caveats are documented in ``docs/perf.md``.

Threading is opt-in via ``REPRO_KERNEL_THREADS`` (OpenMP across the batch
dimension; instances are independent, so threading never changes results).

The plant tick
--------------

The backend also builds the quadrotor physics tick
(:func:`load_plant_tick`, source in :mod:`repro.drone.tick_c`) through
the same cached build path (:func:`_build_shared`): one library for every
plant, since parameters travel in a per-plant struct rather than being
baked in.  It is bit-identical to the scalar Python step; see
:mod:`repro.drone.tick_c` for that contract and the extra
``-fno-builtin`` flag it needs.
"""

from __future__ import annotations

import hashlib
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from . import kernels
from .cache import LQRCache
from .workspace import TinyMPCWorkspace

__all__ = ["CBackendUnavailable", "CKernels", "load_c_backend",
           "load_plant_tick", "default_thread_count", "kernel_cache_dir"]


class CBackendUnavailable(RuntimeError):
    """No working C toolchain (or cffi) for the compiled kernel backend."""


# ---------------------------------------------------------------------------
# C source template
# ---------------------------------------------------------------------------
#
# ``{n}``/``{m}``/``{N}`` are baked per problem shape.  The kernel bodies are
# written once (``_KERNEL_BODY``) and instantiated for double and float.

_HEADER = r"""
#include <stdint.h>
#include <string.h>
#include <math.h>

#define NX {n}
#define NU {m}
#define NH {N}
#define XS (NH * NX)
#define US ((NH - 1) * NU)
#define REFS (US + XS + NX)

typedef struct {{
  double *x, *u, *q, *r, *p, *d, *v, *vnew, *z, *znew, *g, *y, *Xref, *Uref;
  double *prs, *drs, *pri, *dri;
  const double *negKinfT, *AT, *BT, *Bmat, *QuuT, *AmBKtT, *Kinf;
  const double *negR, *negQ, *negPinf;
  const double *umin, *umax, *xmin, *xmax;
  double rho;
  int32_t batch;
  int32_t threads;
  float *f32;
}} AdmmWs;

/* Operator/bound block of the f32 scratch, element-for-element the walk in
 * view_f32: negKinfT + Bmat (NX*NU each), AT + AmBKtT + negQ + negPinf
 * (NX*NX each), BT + Kinf (NU*NX each), QuuT + negR (NU*NU each), and the
 * four bound vectors. */
#define N_OP_ELEMS (2 * NX * NU + 4 * NX * NX + 2 * NU * NX + 2 * NU * NU \
                    + 2 * NU + 2 * NX)

int64_t f32_scratch_elems(int32_t batch) {{
  return (int64_t)batch * (7 * XS + 7 * US) + N_OP_ELEMS;
}}
"""

_KERNEL_BODY = r"""
typedef struct {{
  T *x, *u, *q, *r, *p, *d, *v, *vnew, *z, *znew, *g, *y, *Xref, *Uref;
  const T *negKinfT, *AT, *BT, *Bmat, *QuuT, *AmBKtT, *Kinf;
  const T *negR, *negQ, *negPinf;
  const T *umin, *umax, *xmin, *xmax;
  double *prs, *drs, *pri, *dri;
  T rho;
}} View_{S};

/* out[j] = sum_k in[k] * W[k*jd + j], accumulated k-sequentially (axpy
 * order).  Each output lane's sum order equals the plain dot product's, so
 * vectorizing over j is exact. */
static inline void mv_{S}(T *restrict out, const T *restrict in,
                          const T *restrict W, int kd, int jd) {{
  const T a0 = in[0];
  for (int j = 0; j < jd; j++) out[j] = a0 * W[j];
  for (int k = 1; k < kd; k++) {{
    const T a = in[k];
    const T *restrict w = W + (size_t)k * jd;
    for (int j = 0; j < jd; j++) out[j] += a * w[j];
  }}
}}

/* minimum(maximum(t, lo), hi) with numpy NaN propagation. */
static inline T clip1_{S}(T t, T lo, T hi) {{
  if (t != t) return t;
  t = t > lo ? t : lo;
  return t < hi ? t : hi;
}}

/* max |a - b| with numpy's NaN-propagating max. */
static inline T maxabsdiff_{S}(const T *restrict a, const T *restrict b,
                               int nelem) {{
  T mx = FABS_{S}(a[0] - b[0]);
  for (int k = 1; k < nelem; k++) {{
    const T t = FABS_{S}(a[k] - b[k]);
    if (t > mx || t != t) mx = t;
  }}
  return mx;
}}

static inline void fwd_b_{S}(const View_{S} *vw, int32_t b) {{
  T *restrict x = vw->x + (size_t)b * XS;
  T *restrict u = vw->u + (size_t)b * US;
  const T *restrict d = vw->d + (size_t)b * US;
  T t_m[NU], t_n[NX], t_n2[NX];
  for (int i = 0; i < NH - 1; i++) {{
    const T *xi = x + (size_t)i * NX;
    T *ui = u + (size_t)i * NU;
    mv_{S}(t_m, xi, vw->negKinfT, NX, NU);
    for (int j = 0; j < NU; j++) ui[j] = t_m[j] - d[(size_t)i * NU + j];
    mv_{S}(t_n, xi, vw->AT, NX, NX);
    mv_{S}(t_n2, ui, vw->BT, NU, NX);
    T *xn = x + (size_t)(i + 1) * NX;
    for (int j = 0; j < NX; j++) xn[j] = t_n[j] + t_n2[j];
  }}
}}

static inline void bwd_b_{S}(const View_{S} *vw, int32_t b) {{
  T *restrict p = vw->p + (size_t)b * XS;
  T *restrict dd = vw->d + (size_t)b * US;
  const T *restrict q = vw->q + (size_t)b * XS;
  const T *restrict r = vw->r + (size_t)b * US;
  /* Hoisted r @ Kinf: r never changes inside the recursion and the loop
   * order here is explicit, so the hoist is exactly the per-step product
   * (the numpy scalar path cannot prove that under BLAS/FMA — see
   * kernels._verify_fused_kr). */
  T kr[(NH - 1) * NX];
  for (int i = 0; i < NH - 1; i++)
    mv_{S}(kr + (size_t)i * NX, r + (size_t)i * NU, vw->Kinf, NU, NX);
  T t_m[NU], t_n[NX];
  for (int i = NH - 2; i >= 0; i--) {{
    const T *pn = p + (size_t)(i + 1) * NX;
    mv_{S}(t_m, pn, vw->Bmat, NX, NU);
    for (int j = 0; j < NU; j++) t_m[j] += r[(size_t)i * NU + j];
    mv_{S}(dd + (size_t)i * NU, t_m, vw->QuuT, NU, NU);
    mv_{S}(t_n, pn, vw->AmBKtT, NX, NX);
    const T *qi = q + (size_t)i * NX;
    const T *kri = kr + (size_t)i * NX;
    T *pi = p + (size_t)i * NX;
    for (int j = 0; j < NX; j++) pi[j] = (qi[j] + t_n[j]) - kri[j];
  }}
}}

static inline void slack_b_{S}(const View_{S} *vw, int32_t b) {{
  const T *restrict u = vw->u + (size_t)b * US;
  const T *restrict y = vw->y + (size_t)b * US;
  T *restrict znew = vw->znew + (size_t)b * US;
  for (int i = 0; i < NH - 1; i++)
    for (int j = 0; j < NU; j++) {{
      const size_t k = (size_t)i * NU + j;
      znew[k] = clip1_{S}(u[k] + y[k], vw->umin[j], vw->umax[j]);
    }}
  const T *restrict x = vw->x + (size_t)b * XS;
  const T *restrict g = vw->g + (size_t)b * XS;
  T *restrict vnew = vw->vnew + (size_t)b * XS;
  for (int i = 0; i < NH; i++)
    for (int j = 0; j < NX; j++) {{
      const size_t k = (size_t)i * NX + j;
      vnew[k] = clip1_{S}(x[k] + g[k], vw->xmin[j], vw->xmax[j]);
    }}
}}

static inline void dual_b_{S}(const View_{S} *vw, int32_t b) {{
  const T *restrict u = vw->u + (size_t)b * US;
  const T *restrict znew = vw->znew + (size_t)b * US;
  T *restrict y = vw->y + (size_t)b * US;
  for (int k = 0; k < US; k++) y[k] += u[k] - znew[k];
  const T *restrict x = vw->x + (size_t)b * XS;
  const T *restrict vnew = vw->vnew + (size_t)b * XS;
  T *restrict g = vw->g + (size_t)b * XS;
  for (int k = 0; k < XS; k++) g[k] += x[k] - vnew[k];
}}

/* The reference terms of the linear cost, in one per-row block of REFS:
 * -R Uref per input knot, -Q Xref per state knot, then -Pinf Xref at the
 * last knot.  No kernel writes Xref/Uref, so a row's block stays valid for
 * a whole solve. */
static inline void refs_b_{S}(const View_{S} *vw, int32_t b,
                              T *restrict refs) {{
  const T *restrict Uref = vw->Uref + (size_t)b * US;
  const T *restrict Xref = vw->Xref + (size_t)b * XS;
  for (int i = 0; i < NH - 1; i++)
    mv_{S}(refs + (size_t)i * NU, Uref + (size_t)i * NU, vw->negR, NU, NU);
  for (int i = 0; i < NH; i++)
    mv_{S}(refs + US + (size_t)i * NX, Xref + (size_t)i * NX, vw->negQ,
           NX, NX);
  mv_{S}(refs + US + XS, Xref + (size_t)(NH - 1) * NX, vw->negPinf, NX, NX);
}}

static inline void cost_refs_b_{S}(const View_{S} *vw, int32_t b,
                                   const T *restrict refs) {{
  const T rho = vw->rho;
  const T *restrict znew = vw->znew + (size_t)b * US;
  const T *restrict y = vw->y + (size_t)b * US;
  T *restrict r = vw->r + (size_t)b * US;
  for (int k = 0; k < US; k++) r[k] = refs[k] - rho * (znew[k] - y[k]);
  const T *restrict vnew = vw->vnew + (size_t)b * XS;
  const T *restrict g = vw->g + (size_t)b * XS;
  T *restrict q = vw->q + (size_t)b * XS;
  for (int k = 0; k < XS; k++) q[k] = refs[US + k] - rho * (vnew[k] - g[k]);
  const size_t last = (size_t)(NH - 1) * NX;
  T *restrict p = vw->p + (size_t)b * XS;
  for (int j = 0; j < NX; j++)
    p[last + j] = refs[US + XS + j] - rho * (vnew[last + j] - g[last + j]);
}}

static inline void cost_b_{S}(const View_{S} *vw, int32_t b) {{
  T refs[REFS];
  refs_b_{S}(vw, b, refs);
  cost_refs_b_{S}(vw, b, refs);
}}

static inline void resid_b_{S}(const View_{S} *vw, int32_t b) {{
  const size_t ox = (size_t)b * XS, ou = (size_t)b * US;
  vw->prs[b] = (double)maxabsdiff_{S}(vw->x + ox, vw->vnew + ox, XS);
  vw->drs[b] = (double)(vw->rho * maxabsdiff_{S}(vw->v + ox, vw->vnew + ox, XS));
  vw->pri[b] = (double)maxabsdiff_{S}(vw->u + ou, vw->znew + ou, US);
  vw->dri[b] = (double)(vw->rho * maxabsdiff_{S}(vw->z + ou, vw->znew + ou, US));
}}

static inline void copyvz_b_{S}(const View_{S} *vw, int32_t b) {{
  memcpy(vw->v + (size_t)b * XS, vw->vnew + (size_t)b * XS, XS * sizeof(T));
  memcpy(vw->z + (size_t)b * US, vw->znew + (size_t)b * US, US * sizeof(T));
}}

static inline void prelude_refs_b_{S}(const View_{S} *vw, int32_t b,
                                      int32_t with_residuals,
                                      const T *restrict refs) {{
  fwd_b_{S}(vw, b);
  slack_b_{S}(vw, b);
  dual_b_{S}(vw, b);
  cost_refs_b_{S}(vw, b, refs);
  if (with_residuals) resid_b_{S}(vw, b);
  copyvz_b_{S}(vw, b);
}}

static inline void prelude_b_{S}(const View_{S} *vw, int32_t b,
                                 int32_t with_residuals) {{
  T refs[REFS];
  refs_b_{S}(vw, b, refs);
  prelude_refs_b_{S}(vw, b, with_residuals, refs);
}}
"""

_F64_GLUE = r"""
static inline void view_f64(View_f64 *vw, const AdmmWs *ws) {
  vw->x = ws->x; vw->u = ws->u; vw->q = ws->q; vw->r = ws->r;
  vw->p = ws->p; vw->d = ws->d; vw->v = ws->v; vw->vnew = ws->vnew;
  vw->z = ws->z; vw->znew = ws->znew; vw->g = ws->g; vw->y = ws->y;
  vw->Xref = ws->Xref; vw->Uref = ws->Uref;
  vw->negKinfT = ws->negKinfT; vw->AT = ws->AT; vw->BT = ws->BT;
  vw->Bmat = ws->Bmat; vw->QuuT = ws->QuuT; vw->AmBKtT = ws->AmBKtT;
  vw->Kinf = ws->Kinf; vw->negR = ws->negR; vw->negQ = ws->negQ;
  vw->negPinf = ws->negPinf;
  vw->umin = ws->umin; vw->umax = ws->umax;
  vw->xmin = ws->xmin; vw->xmax = ws->xmax;
  vw->prs = ws->prs; vw->drs = ws->drs; vw->pri = ws->pri; vw->dri = ws->dri;
  vw->rho = ws->rho;
}

#define LOOP_B(vw, stmt) do { \
    const int32_t B_ = ws->batch; \
    _Pragma("omp parallel for schedule(static) num_threads(ws->threads) if(ws->threads > 1 && B_ > 1)") \
    for (int32_t b = 0; b < B_; b++) { stmt; } \
  } while (0)

void forward_f64(AdmmWs *ws) {
  View_f64 vw; view_f64(&vw, ws);
  LOOP_B(vw, fwd_b_f64(&vw, b));
}
void backward_f64(AdmmWs *ws) {
  View_f64 vw; view_f64(&vw, ws);
  LOOP_B(vw, bwd_b_f64(&vw, b));
}
void slack_f64(AdmmWs *ws) {
  View_f64 vw; view_f64(&vw, ws);
  LOOP_B(vw, slack_b_f64(&vw, b));
}
void dual_f64(AdmmWs *ws) {
  View_f64 vw; view_f64(&vw, ws);
  LOOP_B(vw, dual_b_f64(&vw, b));
}
void cost_f64(AdmmWs *ws) {
  View_f64 vw; view_f64(&vw, ws);
  LOOP_B(vw, cost_b_f64(&vw, b));
}
void resid_f64(AdmmWs *ws) {
  View_f64 vw; view_f64(&vw, ws);
  LOOP_B(vw, resid_b_f64(&vw, b));
}
void prelude_f64(AdmmWs *ws, int32_t with_residuals) {
  View_f64 vw; view_f64(&vw, ws);
  LOOP_B(vw, prelude_b_f64(&vw, b, with_residuals));
}
void iter_f64(AdmmWs *ws, int32_t with_residuals) {
  View_f64 vw; view_f64(&vw, ws);
  LOOP_B(vw, { prelude_b_f64(&vw, b, with_residuals); bwd_b_f64(&vw, b); });
}

/* Each requesting row iterates on its own until it terminates, with the
 * masked loop's iteration count, termination test (every check_every-th
 * iteration, four strict < comparisons, so NaN never terminates) and
 * stopping state: a terminating row skips that iteration's backward pass.
 * The per-row kernels are the ones LOOP_B runs, so every row ends
 * bit-identical to the masked loop; rows not listed are never touched.
 * A row's reference terms are computed once per solve instead of once per
 * iteration: the same products of the same unchanged operands. */
void solve_rows_f64(AdmmWs *ws, const int32_t *rows, int32_t nrows,
                    int32_t max_iterations, int32_t check_every,
                    double primal_tol, double dual_tol,
                    int64_t *iterations, uint8_t *converged) {
  View_f64 vw; view_f64(&vw, ws);
  #pragma omp parallel for schedule(dynamic) num_threads(ws->threads) if(ws->threads > 1 && nrows > 1)
  for (int32_t k = 0; k < nrows; k++) {
    const int32_t b = rows[k];
    double refs[REFS];
    refs_b_f64(&vw, b, refs);
    int64_t used = 0;
    uint8_t done = 0;
    for (int32_t it = 1; it <= max_iterations; it++) {
      used = it;
      const int32_t checked = it % check_every == 0;
      prelude_refs_b_f64(&vw, b, checked, refs);
      if (checked && vw.prs[b] < primal_tol && vw.pri[b] < primal_tol
          && vw.drs[b] < dual_tol && vw.dri[b] < dual_tol) {
        done = 1;
        break;
      }
      bwd_b_f64(&vw, b);
    }
    iterations[b] = used;
    converged[b] = done;
  }
}
"""

_F32_GLUE = r"""
static inline void view_f32(View_f32 *vw, const AdmmWs *ws) {
  float *s = ws->f32;
  const size_t B = (size_t)ws->batch;
  vw->x = s; s += B * XS;    vw->u = s; s += B * US;
  vw->q = s; s += B * XS;    vw->r = s; s += B * US;
  vw->p = s; s += B * XS;    vw->d = s; s += B * US;
  vw->v = s; s += B * XS;    vw->vnew = s; s += B * XS;
  vw->z = s; s += B * US;    vw->znew = s; s += B * US;
  vw->g = s; s += B * XS;    vw->y = s; s += B * US;
  vw->Xref = s; s += B * XS; vw->Uref = s; s += B * US;
  vw->negKinfT = s; s += NX * NU;  vw->AT = s; s += NX * NX;
  vw->BT = s; s += NU * NX;        vw->Bmat = s; s += NX * NU;
  vw->QuuT = s; s += NU * NU;      vw->AmBKtT = s; s += NX * NX;
  vw->Kinf = s; s += NU * NX;      vw->negR = s; s += NU * NU;
  vw->negQ = s; s += NX * NX;      vw->negPinf = s; s += NX * NX;
  vw->umin = s; s += NU;  vw->umax = s; s += NU;
  vw->xmin = s; s += NX;  vw->xmax = s; s += NX;
  vw->prs = ws->prs; vw->drs = ws->drs; vw->pri = ws->pri; vw->dri = ws->dri;
  vw->rho = (float)ws->rho;
}

static void narrow(float *dst, const double *src, size_t nelem) {
  for (size_t k = 0; k < nelem; k++) dst[k] = (float)src[k];
}
static void widen(double *dst, const float *src, size_t nelem) {
  for (size_t k = 0; k < nelem; k++) dst[k] = (double)src[k];
}

/* Convert the operator/bound block once per binding (cache change). */
void f32_prepare_ops(AdmmWs *ws) {
  View_f32 vw; view_f32(&vw, ws);
  narrow((float *)vw.negKinfT, ws->negKinfT, NX * NU);
  narrow((float *)vw.AT, ws->AT, NX * NX);
  narrow((float *)vw.BT, ws->BT, NU * NX);
  narrow((float *)vw.Bmat, ws->Bmat, NX * NU);
  narrow((float *)vw.QuuT, ws->QuuT, NU * NU);
  narrow((float *)vw.AmBKtT, ws->AmBKtT, NX * NX);
  narrow((float *)vw.Kinf, ws->Kinf, NU * NX);
  narrow((float *)vw.negR, ws->negR, NU * NU);
  narrow((float *)vw.negQ, ws->negQ, NX * NX);
  narrow((float *)vw.negPinf, ws->negPinf, NX * NX);
  narrow((float *)vw.umin, ws->umin, NU);
  narrow((float *)vw.umax, ws->umax, NU);
  narrow((float *)vw.xmin, ws->xmin, NX);
  narrow((float *)vw.xmax, ws->xmax, NX);
}

static void f32_load(const View_f32 *vw, const AdmmWs *ws) {
  const size_t B = (size_t)ws->batch;
  narrow(vw->x, ws->x, B * XS);       narrow(vw->u, ws->u, B * US);
  narrow(vw->q, ws->q, B * XS);       narrow(vw->r, ws->r, B * US);
  narrow(vw->p, ws->p, B * XS);       narrow(vw->d, ws->d, B * US);
  narrow(vw->v, ws->v, B * XS);       narrow(vw->vnew, ws->vnew, B * XS);
  narrow(vw->z, ws->z, B * US);       narrow(vw->znew, ws->znew, B * US);
  narrow(vw->g, ws->g, B * XS);       narrow(vw->y, ws->y, B * US);
  narrow(vw->Xref, ws->Xref, B * XS); narrow(vw->Uref, ws->Uref, B * US);
}

static void f32_store(const View_f32 *vw, const AdmmWs *ws) {
  const size_t B = (size_t)ws->batch;
  widen(ws->x, vw->x, B * XS);       widen(ws->u, vw->u, B * US);
  widen(ws->q, vw->q, B * XS);       widen(ws->r, vw->r, B * US);
  widen(ws->p, vw->p, B * XS);       widen(ws->d, vw->d, B * US);
  widen(ws->v, vw->v, B * XS);       widen(ws->vnew, vw->vnew, B * XS);
  widen(ws->z, vw->z, B * US);       widen(ws->znew, vw->znew, B * US);
  widen(ws->g, vw->g, B * XS);       widen(ws->y, vw->y, B * US);
}

#define F32_KERNEL(name, stmt) \
  void name(AdmmWs *ws) { \
    View_f32 vw; view_f32(&vw, ws); \
    f32_load(&vw, ws); \
    const int32_t B_ = ws->batch; \
    _Pragma("omp parallel for schedule(static) num_threads(ws->threads) if(ws->threads > 1 && B_ > 1)") \
    for (int32_t b = 0; b < B_; b++) { stmt; } \
    f32_store(&vw, ws); \
  }

F32_KERNEL(forward_f32, fwd_b_f32(&vw, b))
F32_KERNEL(backward_f32, bwd_b_f32(&vw, b))
F32_KERNEL(slack_f32, slack_b_f32(&vw, b))
F32_KERNEL(dual_f32, dual_b_f32(&vw, b))
F32_KERNEL(cost_f32, cost_b_f32(&vw, b))
F32_KERNEL(resid_f32, resid_b_f32(&vw, b))

void prelude_f32(AdmmWs *ws, int32_t with_residuals) {
  View_f32 vw; view_f32(&vw, ws);
  f32_load(&vw, ws);
  const int32_t B_ = ws->batch;
  _Pragma("omp parallel for schedule(static) num_threads(ws->threads) if(ws->threads > 1 && B_ > 1)")
  for (int32_t b = 0; b < B_; b++) prelude_b_f32(&vw, b, with_residuals);
  f32_store(&vw, ws);
}
void iter_f32(AdmmWs *ws, int32_t with_residuals) {
  View_f32 vw; view_f32(&vw, ws);
  f32_load(&vw, ws);
  const int32_t B_ = ws->batch;
  _Pragma("omp parallel for schedule(static) num_threads(ws->threads) if(ws->threads > 1 && B_ > 1)")
  for (int32_t b = 0; b < B_; b++) {
    prelude_b_f32(&vw, b, with_residuals);
    bwd_b_f32(&vw, b);
  }
  f32_store(&vw, ws);
}
"""

_CDEF = """
typedef struct {
  double *x, *u, *q, *r, *p, *d, *v, *vnew, *z, *znew, *g, *y, *Xref, *Uref;
  double *prs, *drs, *pri, *dri;
  const double *negKinfT, *AT, *BT, *Bmat, *QuuT, *AmBKtT, *Kinf;
  const double *negR, *negQ, *negPinf;
  const double *umin, *umax, *xmin, *xmax;
  double rho;
  int32_t batch;
  int32_t threads;
  float *f32;
} AdmmWs;
int64_t f32_scratch_elems(int32_t batch);
void forward_f64(AdmmWs *ws);
void backward_f64(AdmmWs *ws);
void slack_f64(AdmmWs *ws);
void dual_f64(AdmmWs *ws);
void cost_f64(AdmmWs *ws);
void resid_f64(AdmmWs *ws);
void prelude_f64(AdmmWs *ws, int32_t with_residuals);
void iter_f64(AdmmWs *ws, int32_t with_residuals);
void solve_rows_f64(AdmmWs *ws, const int32_t *rows, int32_t nrows,
                    int32_t max_iterations, int32_t check_every,
                    double primal_tol, double dual_tol,
                    int64_t *iterations, uint8_t *converged);
void f32_prepare_ops(AdmmWs *ws);
void forward_f32(AdmmWs *ws);
void backward_f32(AdmmWs *ws);
void slack_f32(AdmmWs *ws);
void dual_f32(AdmmWs *ws);
void cost_f32(AdmmWs *ws);
void resid_f32(AdmmWs *ws);
void prelude_f32(AdmmWs *ws, int32_t with_residuals);
void iter_f32(AdmmWs *ws, int32_t with_residuals);
"""


def _render_source(n: int, m: int, N: int) -> str:
    parts = [_HEADER.format(n=n, m=m, N=N)]
    parts.append("#define T double\n#define FABS_f64 fabs\n")
    parts.append(_KERNEL_BODY.format(S="f64"))
    parts.append("#undef T\n#define T float\n#define FABS_f32 fabsf\n")
    parts.append(_KERNEL_BODY.format(S="f32"))
    parts.append("#undef T\n")
    parts.append(_F64_GLUE)
    parts.append(_F32_GLUE)
    return "".join(parts)


# ---------------------------------------------------------------------------
# Build + load
# ---------------------------------------------------------------------------

def kernel_cache_dir() -> Path:
    """Where compiled kernel libraries are cached across processes."""
    root = os.environ.get("REPRO_KERNEL_CACHE")
    if root:
        return Path(root).expanduser()
    return Path.home() / ".cache" / "repro-kernels"


def _compiler() -> Optional[str]:
    override = os.environ.get("REPRO_KERNEL_CC")
    if override:
        return override if shutil.which(override) else None
    for cc in ("cc", "gcc", "clang"):
        path = shutil.which(cc)
        if path:
            return path
    return None


def default_thread_count() -> int:
    """OpenMP threads across the batch dimension (1 = off; opt-in via env)."""
    raw = os.environ.get("REPRO_KERNEL_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        return 1
    if threads <= 0:                      # 0/negative: one per core
        threads = os.cpu_count() or 1
    return max(1, threads)


_BASE_FLAGS = ["-O3", "-shared", "-fPIC", "-ffp-contract=off",
               "-fno-unsafe-math-optimizations"]


def _flag_candidates() -> Tuple[Tuple[str, ...], ...]:
    extra = os.environ.get("REPRO_KERNEL_CFLAGS")
    if extra is not None:
        return (tuple(_BASE_FLAGS + extra.split()),)
    # Preference order: native SIMD + OpenMP, then progressively portable.
    return (
        tuple(_BASE_FLAGS + ["-march=native", "-fopenmp"]),
        tuple(_BASE_FLAGS + ["-march=native"]),
        tuple(_BASE_FLAGS + ["-fopenmp"]),
        tuple(_BASE_FLAGS),
    )


_ffi = None


def _get_ffi():
    global _ffi
    if _ffi is None:
        _ffi = _new_ffi(_CDEF)
    return _ffi


def _new_ffi(cdef: str):
    try:
        import cffi
    except ImportError as exc:
        raise CBackendUnavailable("cffi is not installed") from exc
    ffi = cffi.FFI()
    ffi.cdef(cdef)
    return ffi


def _build_shared(stem: str, source: str, ffi,
                  flag_sets: Tuple[Tuple[str, ...], ...]
                  ) -> Tuple[object, Dict[str, str]]:
    """Build ``source`` into ``kernel_cache_dir()/<stem>_<tag>.so``; dlopen it.

    ``tag`` hashes the source, compiler, flags and platform, so a cached
    library is reused only for exactly what it was built from.  Flag sets
    are tried in order until one compiles.  Returns the library and its
    build detail (``cc``, ``cflags``, ``tag``).
    """
    cc = _compiler()
    if cc is None:
        raise CBackendUnavailable("no C compiler found (cc/gcc/clang)")
    cache = kernel_cache_dir()
    last_error = None
    for flags in flag_sets:
        tag = hashlib.sha256("\x00".join(
            (source, cc, " ".join(flags), platform.machine(), sys.platform)
        ).encode()).hexdigest()[:16]
        so_path = cache / "{}_{}.so".format(stem, tag)
        detail = {"cc": cc, "cflags": " ".join(flags), "tag": tag}
        if so_path.exists():
            return ffi.dlopen(str(so_path)), detail
        try:
            cache.mkdir(parents=True, exist_ok=True)
            with tempfile.TemporaryDirectory(dir=str(cache)) as tmp:
                c_path = Path(tmp) / (stem + ".c")
                c_path.write_text(source)
                out_path = Path(tmp) / (stem + ".so")
                result = subprocess.run(
                    [cc, *flags, str(c_path), "-o", str(out_path), "-lm"],
                    capture_output=True, text=True, timeout=120)
                if result.returncode != 0:
                    last_error = result.stderr.strip()[-500:]
                    continue
                os.replace(str(out_path), str(so_path))   # atomic publish
            return ffi.dlopen(str(so_path)), detail
        except (OSError, subprocess.SubprocessError) as exc:
            last_error = str(exc)
            continue
    raise CBackendUnavailable("{} build failed with every flag set: {}"
                              .format(stem, last_error))


_LIBS: Dict[Tuple[int, int, int], object] = {}
_BUILD_DETAIL: Dict[str, str] = {}


def _library_for(n: int, m: int, N: int):
    key = (n, m, N)
    lib = _LIBS.get(key)
    if lib is None:
        lib, detail = _build_shared(
            "admm_{}x{}x{}".format(n, m, N), _render_source(n, m, N),
            _get_ffi(), _flag_candidates())
        _BUILD_DETAIL.update(cc=detail["cc"], flags=detail["cflags"])
        _LIBS[key] = lib
    return lib


_PLANT_TICK = None


def load_plant_tick():
    """Build (or load from cache) the compiled quadrotor tick.

    One library serves every plant: parameters travel in the per-plant
    struct, so no variant, mass mismatch or time step ever triggers a
    build.  ``-fno-builtin`` is part of the numerical contract (see
    :mod:`repro.drone.tick_c`).  Raises :class:`CBackendUnavailable`.
    """
    global _PLANT_TICK
    if _PLANT_TICK is None:
        from ..drone import tick_c

        ffi = _new_ffi(tick_c.CDEF)
        flag_sets = tuple(flags + ("-fno-builtin",)
                          for flags in _flag_candidates())
        lib, detail = _build_shared("plant_tick", tick_c.SOURCE, ffi,
                                    flag_sets)
        _PLANT_TICK = tick_c.PlantTick(lib, ffi, detail)
    return _PLANT_TICK


# ---------------------------------------------------------------------------
# Per-workspace binding
# ---------------------------------------------------------------------------

_WS_FIELDS = ("x", "u", "q", "r", "p", "d", "v", "vnew", "z", "znew",
              "g", "y", "Xref", "Uref")
_RESID_FIELDS = (("prs", "primal_residual_state"),
                 ("drs", "dual_residual_state"),
                 ("pri", "primal_residual_input"),
                 ("dri", "dual_residual_input"))


class _CBinding:
    """cffi struct + keepalive buffers binding one workspace to the library.

    Built once per workspace (stored as ``ws._c_kernel_binding``); the
    workspace-buffer invariant (arrays are written in place, never rebound)
    makes the cached pointers stable.  Operator pointers are rebuilt when
    the cache object changes, residual pointers when legacy (naive) code
    rebound the residual fields.
    """

    __slots__ = ("lib", "ffi", "c", "keep", "dtype", "cache", "problem",
                 "resid_arrays", "f32_arr")

    def __init__(self, ws: TinyMPCWorkspace, dtype: str) -> None:
        n, m, N = ws.state_dim, ws.input_dim, ws.horizon
        self.lib = _library_for(n, m, N)
        self.ffi = _get_ffi()
        self.dtype = dtype
        self.cache = None
        self.problem = None
        self.keep = []
        self.c = self.ffi.new("AdmmWs *")
        batch = ws.lead_shape[0] if ws.lead_shape else 1
        self.c.batch = batch
        self.c.threads = default_thread_count()
        for name in _WS_FIELDS:
            self._point(name, getattr(ws, name))
        self.resid_arrays = {}
        self.rebind_residuals(ws)
        if dtype == "float32":
            elems = int(self.lib.f32_scratch_elems(batch))
            self.f32_arr = np.empty(elems, dtype=np.float32)
            buf = self.ffi.from_buffer(self.f32_arr)
            self.keep.append(buf)
            self.c.f32 = self.ffi.cast("float *", buf)
        else:
            self.f32_arr = None
            self.c.f32 = self.ffi.NULL

    def _point(self, field: str, array: np.ndarray) -> None:
        if array.dtype != np.float64 or not array.flags.c_contiguous:
            raise ValueError(
                "workspace buffer {} must be C-contiguous float64".format(field))
        buf = self.ffi.from_buffer(array)
        self.keep.append(buf)
        setattr(self.c, field, self.ffi.cast("double *", buf))

    def rebind_residuals(self, ws: TinyMPCWorkspace) -> None:
        for field, attr in _RESID_FIELDS:
            array = getattr(ws, attr)
            self.resid_arrays[field] = array
            self._point(field, array)

    def residuals_stale(self, ws: TinyMPCWorkspace) -> bool:
        for field, attr in _RESID_FIELDS:
            if getattr(ws, attr) is not self.resid_arrays[field]:
                return True
        return False

    def bind_operators(self, ws: TinyMPCWorkspace, cache: LQRCache) -> None:
        """(Re)point the operator fields at contiguous float64 copies.

        The numpy kernels deliberately keep transpose *views* (their BLAS
        path depends on operand strides); the C loops spell out their own
        order, so contiguous row-major copies are both legal and fastest.
        """
        problem = ws.problem
        ops = {
            "negKinfT": cache.neg_KinfT, "AT": problem.AT, "BT": problem.BT,
            "Bmat": problem.B, "QuuT": cache.Quu_invT, "AmBKtT": cache.AmBKtT,
            "Kinf": cache.Kinf, "negR": problem.neg_R, "negQ": problem.neg_Q,
            "negPinf": cache.neg_Pinf,
            "umin": problem.u_min, "umax": problem.u_max,
            "xmin": problem.x_min, "xmax": problem.x_max,
        }
        for field, value in ops.items():
            array = np.ascontiguousarray(value, dtype=np.float64)
            buf = self.ffi.from_buffer(array)
            self.keep.append(array)
            self.keep.append(buf)
            setattr(self.c, field, self.ffi.cast("double *", buf))
        self.c.rho = float(problem.rho)
        self.cache = cache
        self.problem = problem
        if self.dtype == "float32":
            self.lib.f32_prepare_ops(self.c)


def _binding(ws: TinyMPCWorkspace, cache: Optional[LQRCache]) -> _CBinding:
    dtype = getattr(ws, "compute_dtype", "float64")
    binding = getattr(ws, "_c_kernel_binding", None)
    if binding is None or binding.dtype != dtype:
        binding = _CBinding(ws, dtype)
        ws._c_kernel_binding = binding
    if binding.residuals_stale(ws):
        binding.rebind_residuals(ws)
    if cache is not None and binding.cache is not cache:
        binding.bind_operators(ws, cache)
    elif binding.cache is None:
        # Elementwise kernels need rho (and f32 needs bounds) even when the
        # call site has no cache in hand; bind from the workspace's problem
        # with a placeholder-free operator set derived lazily.
        from .cache import compute_cache
        binding.bind_operators(ws, compute_cache(ws.problem))
    return binding


# ---------------------------------------------------------------------------
# Kernel implementation object (the compiled-dispatch contract)
# ---------------------------------------------------------------------------

class CKernels:
    """Kernel set backed by the runtime-compiled C library."""

    name = "c"
    supports_float32 = True

    def __init__(self) -> None:
        # Fail fast at construction if the toolchain is unusable: building
        # the paper's reference shape proves compiler + loader end to end.
        # The plant tick is part of the backend: if it cannot be built,
        # neither half is installed.
        _library_for(12, 4, 10)
        self.plant_tick = load_plant_tick()

    @staticmethod
    def info() -> Dict[str, object]:
        return {
            "cc": _BUILD_DETAIL.get("cc", ""),
            "cflags": _BUILD_DETAIL.get("flags", ""),
            "threads": default_thread_count(),
            "cached_shapes": sorted(_LIBS),
        }

    # -- kernel entry points -------------------------------------------------
    @staticmethod
    def _entry(ws, cache, name):
        binding = _binding(ws, cache)
        suffix = "_f32" if binding.dtype == "float32" else "_f64"
        return binding, getattr(binding.lib, name + suffix)

    def forward_pass(self, ws, cache) -> None:
        binding, fn = self._entry(ws, cache, "forward")
        fn(binding.c)

    def backward_pass(self, ws, cache) -> None:
        binding, fn = self._entry(ws, cache, "backward")
        fn(binding.c)

    def update_slack(self, ws) -> None:
        binding, fn = self._entry(ws, None, "slack")
        fn(binding.c)

    def update_dual(self, ws) -> None:
        binding, fn = self._entry(ws, None, "dual")
        fn(binding.c)

    def update_linear_cost(self, ws, cache) -> None:
        binding, fn = self._entry(ws, cache, "cost")
        fn(binding.c)

    def update_residuals(self, ws) -> None:
        if type(ws.primal_residual_state) is not np.ndarray:
            ws._reset_residuals()
        binding, fn = self._entry(ws, None, "resid")
        fn(binding.c)

    def iteration_prelude(self, ws, cache, with_residuals: bool = True) -> None:
        if with_residuals and type(ws.primal_residual_state) is not np.ndarray:
            ws._reset_residuals()
        binding, fn = self._entry(ws, cache, "prelude")
        fn(binding.c, 1 if with_residuals else 0)

    def admm_iteration(self, ws, cache, with_residuals: bool = True) -> None:
        if with_residuals and type(ws.primal_residual_state) is not np.ndarray:
            ws._reset_residuals()
        binding, fn = self._entry(ws, cache, "iter")
        fn(binding.c, 1 if with_residuals else 0)

    def solve_rows(self, ws, cache, rows) -> None:
        """A whole batched solve in one call: each requesting row runs to
        its own termination (``solve_rows_f64``) instead of the masked loop
        running every row for as long as the slowest one.  float32 keeps
        the masked loop over its per-iteration kernels."""
        if rows.workspace is not ws:
            raise ValueError("row buffers belong to another workspace")
        binding = _binding(ws, cache)
        if binding.dtype == "float32":
            kernels._DEFAULT_SOLVE_ROWS(ws, cache, rows)
            return
        pointers = rows.c_pointers
        if pointers is None:
            pointers = rows.c_pointers = _row_pointers(binding.ffi, rows)
        settings = rows.settings
        binding.lib.solve_rows_f64(
            binding.c, pointers[0], rows.count, settings.max_iterations,
            settings.check_termination_every, settings.abs_primal_tolerance,
            settings.abs_dual_tolerance, pointers[1], pointers[2])


def _row_pointers(ffi, rows):
    """cffi pointers to a :class:`~repro.tinympc.batch.RowSolveBuffers`'
    index, iteration and verdict arrays (plus the buffers keeping them
    alive); the arrays are allocated once per solver, so this runs once."""
    keep = tuple(ffi.from_buffer(array)
                 for array in (rows.index, rows.iterations, rows.converged))
    return (ffi.cast("int32_t *", keep[0]), ffi.cast("int64_t *", keep[1]),
            ffi.cast("uint8_t *", keep[2]), keep)


def load_c_backend() -> CKernels:
    """Build (or load from cache) the C backend; raises CBackendUnavailable."""
    return CKernels()
