"""Optional compiled core of the packed kernel engine.

This module owns the native half of :mod:`repro.tpn.kernel`: a small C
translation unit (embedded below as a string, so the sdist needs no
extra data files) compiled on demand through cffi's API mode into a
shared object cached next to this package.  Everything degrades
gracefully — the kernel engine asks :func:`load` for the compiled
module and falls back to its pure-Python core whenever the answer is
``None``:

* ``EZRT_PURE=1`` in the environment force-disables the compiled core
  (CI runs the whole test suite once in this mode);
* a missing cffi, a missing C compiler, an unwritable cache directory
  or any other build/import failure is swallowed after recording the
  exception on :data:`LOAD_ERROR` for diagnostics.

The C core operates *in place* on the same packed buffers the Python
side owns (``array('I')`` marking and clock vectors), so
there is no per-state marshalling: one successor computation is two
buffer copies on the Python side plus a single foreign call.

Build caching: the shared object lands in ``_kernelc_build/<digest>/``
beside this file (or under the system temp directory when the package
is not writable), keyed by a digest of the C source, so editing the
source never picks up a stale binary and concurrent builders (pytest
workers, portfolio processes) can only race to produce identical
files — the final ``os.replace`` is atomic.

CI builds eagerly via ``python -m repro.tpn._kernelc``; see
``pyproject.toml``'s ``native`` extra for the cffi pin.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import tempfile
import zlib

#: Last build/import failure, for diagnostics (``None`` = no failure).
LOAD_ERROR: Exception | None = None

#: Environment variable that force-disables the compiled core.
PURE_ENV = "EZRT_PURE"

_MODULE_NAME = "_ezrt_kernel"

# The foreign function surface, shared between ffi.cdef and the
# translation unit below.
CDEF = """
typedef struct kn_net kn_net;
kn_net *kn_net_new(int32_t num_places, int32_t num_transitions,
                   const int32_t *pre_off, const int32_t *pre_place,
                   const int32_t *pre_w,
                   const int32_t *delta_off, const int32_t *delta_place,
                   const int32_t *delta_d,
                   const int32_t *aff_off, const int32_t *aff_t,
                   const int32_t *pc_off, const int32_t *pc_t,
                   const int32_t *eft, const int32_t *lft,
                   const int32_t *prio, const uint8_t *flags);
void kn_net_free(kn_net *net);
uint64_t kn_hash(const kn_net *net, const uint32_t *mark,
                 const uint32_t *clk);
int32_t kn_successor(const kn_net *net, const uint32_t *old_mark,
                     const uint32_t *old_clk, uint32_t *mark,
                     uint32_t *clk, uint64_t *hash_io, int32_t t,
                     int64_t q, int32_t intermediate);
int32_t kn_candidates(const kn_net *net, const uint32_t *clk,
                      int32_t strict, int32_t partial_order,
                      int32_t *out, int32_t *reduced);
int32_t kn_window(const kn_net *net, const uint32_t *clk,
                  int32_t *out, int32_t *ceiling_out);
int32_t kn_expand(const kn_net *net, const uint32_t *clk,
                  int32_t strict, int32_t partial_order,
                  int32_t full, int32_t *out, int32_t cap,
                  int32_t *reduced);
"""

# The successor/firable/min-DUB inner loop over the packed buffers.
# Semantics are line-for-line the pure-Python core of
# repro.tpn.kernel.KernelEngine (which mirrors the checked reference
# engine of repro.tpn.state); the two are locked together by the
# native-vs-pure differential suite in tests/test_kernel_engine.py.
# DIS (0xFFFFFFFF) marks a disabled transition's clock; lft < 0 encodes an
# unbounded LFT; flag bits: 1 = immediate [0,0], 2 = deadline-miss,
# 4 = structurally conflict-free.
SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define KN_DIS 0xFFFFFFFFu
#define KN_INF_CEILING INT64_MAX

typedef struct kn_net {
    int32_t P, T;
    const int32_t *pre_off, *pre_place, *pre_w;
    const int32_t *delta_off, *delta_place, *delta_d;
    const int32_t *aff_off, *aff_t;
    const int32_t *pc_off, *pc_t;
    const int32_t *eft, *lft, *prio;
    const uint8_t *flags;
    uint32_t *scratch; /* P words: intermediate-marking reference */
    int32_t *cand;     /* 2T words: pre-expansion candidate pairs */
} kn_net;

kn_net *kn_net_new(int32_t num_places, int32_t num_transitions,
                   const int32_t *pre_off, const int32_t *pre_place,
                   const int32_t *pre_w,
                   const int32_t *delta_off, const int32_t *delta_place,
                   const int32_t *delta_d,
                   const int32_t *aff_off, const int32_t *aff_t,
                   const int32_t *pc_off, const int32_t *pc_t,
                   const int32_t *eft, const int32_t *lft,
                   const int32_t *prio, const uint8_t *flags)
{
    kn_net *net = (kn_net *)malloc(sizeof(kn_net));
    if (!net)
        return NULL;
    net->P = num_places;
    net->T = num_transitions;
    net->pre_off = pre_off;
    net->pre_place = pre_place;
    net->pre_w = pre_w;
    net->delta_off = delta_off;
    net->delta_place = delta_place;
    net->delta_d = delta_d;
    net->aff_off = aff_off;
    net->aff_t = aff_t;
    net->pc_off = pc_off;
    net->pc_t = pc_t;
    net->eft = eft;
    net->lft = lft;
    net->prio = prio;
    net->flags = flags;
    net->scratch = (uint32_t *)malloc(
        (num_places ? (size_t)num_places : 1) * sizeof(uint32_t));
    net->cand = (int32_t *)malloc(
        2 * (num_transitions ? (size_t)num_transitions : 1)
        * sizeof(int32_t));
    if (!net->scratch || !net->cand) {
        free(net->scratch);
        free(net->cand);
        free(net);
        return NULL;
    }
    return net;
}

void kn_net_free(kn_net *net)
{
    if (net) {
        free(net->scratch);
        free(net->cand);
        free(net);
    }
}

/* splitmix64 finalizer: the functional Zobrist key generator.  No
 * tables — the key of (kind, index, value) is the mix of one packed
 * word, identical to repro.tpn.kernel._mix on the Python side. */
static uint64_t kn_mix(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

static uint64_t kn_zm(int32_t p, uint32_t v)
{
    return kn_mix(((uint64_t)1 << 62) ^ ((uint64_t)p << 32) ^ v);
}

static uint64_t kn_zc(int32_t t, uint32_t v)
{
    return kn_mix(((uint64_t)2 << 62) ^ ((uint64_t)t << 32) ^ v);
}

uint64_t kn_hash(const kn_net *net, const uint32_t *mark,
                 const uint32_t *clk)
{
    uint64_t h = 0;
    int32_t i;
    for (i = 0; i < net->P; i++)
        h ^= kn_zm(i, mark[i]);
    for (i = 0; i < net->T; i++)
        h ^= kn_zc(i, clk[i]);
    return h;
}

/* Definition 3.1 over the packed buffers.  `mark`/`clk` arrive as
 * copies of `old_mark`/`old_clk` and are mutated in place; the state
 * hash is maintained incrementally (XOR out the old word, XOR in the
 * new one).  Returns 0 on success, 1 on marking overflow (> 0xFFFFFFFF
 * tokens in a place), 2 on clock overflow (>= 0xFFFFFFFF).  New values
 * are computed in 64 bits before the cap check, so nothing wraps. */
int32_t kn_successor(const kn_net *net, const uint32_t *old_mark,
                     const uint32_t *old_clk, uint32_t *mark,
                     uint32_t *clk, uint64_t *hash_io, int32_t t,
                     int64_t q, int32_t intermediate)
{
    uint64_t h = *hash_io;
    int32_t i, j;
    const uint32_t *ref = NULL;

    for (i = net->delta_off[t]; i < net->delta_off[t + 1]; i++) {
        int32_t p = net->delta_place[i];
        int64_t nv = (int64_t)mark[p] + net->delta_d[i];
        if (nv < 0 || nv > (int64_t)0xFFFFFFFFu)
            return 1;
        h ^= kn_zm(p, mark[p]) ^ kn_zm(p, (uint32_t)nv);
        mark[p] = (uint32_t)nv;
    }

    if (q) {
        int32_t T = net->T;
        for (j = 0; j < T; j++) {
            uint32_t v = clk[j];
            if (v != KN_DIS) {
                uint64_t nv = (uint64_t)v + (uint64_t)q;
                if (nv >= KN_DIS)
                    return 2;
                h ^= kn_zc(j, v) ^ kn_zc(j, (uint32_t)nv);
                clk[j] = (uint32_t)nv;
            }
        }
    }

    if (intermediate) {
        /* enabledness transiently re-checked against m - W(., t) */
        memcpy(net->scratch, old_mark,
               (size_t)net->P * sizeof(uint32_t));
        for (i = net->pre_off[t]; i < net->pre_off[t + 1]; i++)
            net->scratch[net->pre_place[i]] -=
                (uint32_t)net->pre_w[i];
        ref = net->scratch;
    }

    for (i = net->aff_off[t]; i < net->aff_off[t + 1]; i++) {
        int32_t tk = net->aff_t[i];
        uint32_t oldc = old_clk[tk];
        int enabled_now = 1;
        for (j = net->pre_off[tk]; j < net->pre_off[tk + 1]; j++) {
            if (mark[net->pre_place[j]] < (uint32_t)net->pre_w[j]) {
                enabled_now = 0;
                break;
            }
        }
        if (!enabled_now) {
            if (oldc != KN_DIS) {
                h ^= kn_zc(tk, clk[tk]) ^ kn_zc(tk, KN_DIS);
                clk[tk] = (uint32_t)KN_DIS;
            }
        } else if (oldc == KN_DIS) {
            /* newly enabled: clock resets to zero (the bulk advance
             * skipped disabled entries, so clk[tk] is still DIS) */
            h ^= kn_zc(tk, KN_DIS) ^ kn_zc(tk, 0u);
            clk[tk] = 0;
        } else {
            int reset = (tk == t);
            if (!reset && ref) {
                for (j = net->pre_off[tk]; j < net->pre_off[tk + 1];
                     j++) {
                    if (ref[net->pre_place[j]] <
                        (uint32_t)net->pre_w[j]) {
                        reset = 1;
                        break;
                    }
                }
            }
            if (reset) {
                uint32_t cur = clk[tk];
                if (cur) {
                    h ^= kn_zc(tk, cur) ^ kn_zc(tk, 0u);
                    clk[tk] = 0;
                }
            }
            /* else persistent: the bulk advance already set it */
        }
    }
    *hash_io = h;
    return 0;
}

/* The full earliest-mode candidate enumeration: min-DUB ceiling,
 * firing window, optional strict priority filter, optional forced-
 * immediate partial-order reduction, (delay, priority, index) order.
 * `out` receives (transition, lower) pairs; returns the count. */
int32_t kn_candidates(const kn_net *net, const uint32_t *clk,
                      int32_t strict, int32_t partial_order,
                      int32_t *out, int32_t *reduced)
{
    int32_t T = net->T;
    int64_t ceiling = KN_INF_CEILING;
    int32_t tk, k, n = 0;

    *reduced = 0;
    for (tk = 0; tk < T; tk++) {
        uint32_t v = clk[tk];
        int64_t l;
        if (v == KN_DIS)
            continue;
        l = net->lft[tk];
        if (l < 0)
            continue; /* unbounded LFT */
        l -= v;
        if (l < ceiling)
            ceiling = l;
    }
    for (tk = 0; tk < T; tk++) {
        uint32_t v = clk[tk];
        int64_t lo;
        if (v == KN_DIS || (net->flags[tk] & 2))
            continue; /* disabled or deadline-miss */
        lo = (int64_t)net->eft[tk] - v;
        if (lo < 0)
            lo = 0;
        if (lo <= ceiling) {
            out[2 * n] = tk;
            out[2 * n + 1] = (int32_t)lo;
            n++;
        }
    }
    if (n == 0)
        return 0;

    if (strict) {
        int32_t best = net->prio[out[0]];
        int32_t m = 0;
        for (k = 1; k < n; k++)
            if (net->prio[out[2 * k]] < best)
                best = net->prio[out[2 * k]];
        for (k = 0; k < n; k++) {
            if (net->prio[out[2 * k]] == best) {
                out[2 * m] = out[2 * k];
                out[2 * m + 1] = out[2 * k + 1];
                m++;
            }
        }
        n = m;
    }

    if (partial_order && n > 1) {
        for (k = 0; k < n; k++) {
            int32_t tc = out[2 * k];
            int32_t l, m2, ok = 1;
            if (out[2 * k + 1] != 0 || !(net->flags[tc] & 4))
                continue; /* not zero-delay or not conflict-free */
            l = net->lft[tc];
            if (l < 0 || (int64_t)l - clk[tc] > 0)
                continue; /* not forced at this instant */
            for (m2 = net->pc_off[tc]; m2 < net->pc_off[tc + 1];
                 m2++) {
                if (clk[net->pc_t[m2]] != KN_DIS) {
                    ok = 0; /* an enabled transition consumes t's out */
                    break;
                }
            }
            if (ok) {
                out[0] = tc;
                out[1] = 0;
                *reduced = 1;
                return 1;
            }
        }
    }

    if (n > 1) {
        /* insertion sort by (lower, priority, index); candidate
         * lists are window-sized, typically < 16 entries */
        for (k = 1; k < n; k++) {
            int32_t tc = out[2 * k], lo = out[2 * k + 1];
            int32_t pk = net->prio[tc];
            int32_t m2 = k - 1;
            while (m2 >= 0) {
                int32_t tm = out[2 * m2], lm = out[2 * m2 + 1];
                int32_t pm = net->prio[tm];
                if (lm > lo ||
                    (lm == lo &&
                     (pm > pk || (pm == pk && tm > tc)))) {
                    out[2 * m2 + 2] = tm;
                    out[2 * m2 + 3] = lm;
                    m2--;
                } else {
                    break;
                }
            }
            out[2 * m2 + 2] = tc;
            out[2 * m2 + 3] = lo;
        }
    }
    return n;
}

/* Raw firing window for the delay-enumeration modes: ceiling +
 * unfiltered (transition, lower) pairs in ascending index order.
 * `ceiling_out` is -1 when no enabled transition bounds the window. */
int32_t kn_window(const kn_net *net, const uint32_t *clk,
                  int32_t *out, int32_t *ceiling_out)
{
    int32_t T = net->T;
    int64_t ceiling = KN_INF_CEILING;
    int32_t tk, n = 0;

    for (tk = 0; tk < T; tk++) {
        uint32_t v = clk[tk];
        int64_t l;
        if (v == KN_DIS)
            continue;
        l = net->lft[tk];
        if (l < 0)
            continue;
        l -= v;
        if (l < ceiling)
            ceiling = l;
    }
    for (tk = 0; tk < T; tk++) {
        uint32_t v = clk[tk];
        int64_t lo;
        if (v == KN_DIS || (net->flags[tk] & 2))
            continue;
        lo = (int64_t)net->eft[tk] - v;
        if (lo < 0)
            lo = 0;
        if (lo <= ceiling) {
            out[2 * n] = tk;
            out[2 * n + 1] = (int32_t)lo;
            n++;
        }
    }
    *ceiling_out = (ceiling == KN_INF_CEILING) ? -1 : (int32_t)ceiling;
    return n;
}

/* The full candidate pipeline of the delay-enumeration modes
 * ("extremes" when `full` is 0, "full" when 1): window, strict
 * priority filter, forced-immediate partial-order reduction, the
 * delay expansion against the min-DUB ceiling and the
 * (delay, priority, index) sort — everything the Python fallback
 * composes from kn_window + order_and_expand, in one call.  An
 * unbounded ceiling collapses to earliest-only ordering, exactly
 * like repro.scheduler.core.order_and_expand.  `out` receives
 * (transition, delay) pairs; returns the count, or -needed when
 * `cap` pairs are not enough (the caller grows the buffer and
 * retries). */
int32_t kn_expand(const kn_net *net, const uint32_t *clk,
                  int32_t strict, int32_t partial_order,
                  int32_t full, int32_t *out, int32_t cap,
                  int32_t *reduced)
{
    int32_t T = net->T;
    int64_t ceiling = KN_INF_CEILING;
    int32_t tk, k, n = 0, needed, m, q;

    *reduced = 0;
    for (tk = 0; tk < T; tk++) {
        uint32_t v = clk[tk];
        int64_t l;
        if (v == KN_DIS)
            continue;
        l = net->lft[tk];
        if (l < 0)
            continue;
        l -= v;
        if (l < ceiling)
            ceiling = l;
    }
    for (tk = 0; tk < T; tk++) {
        uint32_t v = clk[tk];
        int64_t lo;
        if (v == KN_DIS || (net->flags[tk] & 2))
            continue;
        lo = (int64_t)net->eft[tk] - v;
        if (lo < 0)
            lo = 0;
        if (lo <= ceiling) {
            net->cand[2 * n] = tk;
            net->cand[2 * n + 1] = (int32_t)lo;
            n++;
        }
    }
    if (n == 0)
        return 0;

    if (strict) {
        int32_t best = net->prio[net->cand[0]];
        int32_t m2 = 0;
        for (k = 1; k < n; k++)
            if (net->prio[net->cand[2 * k]] < best)
                best = net->prio[net->cand[2 * k]];
        for (k = 0; k < n; k++) {
            if (net->prio[net->cand[2 * k]] == best) {
                net->cand[2 * m2] = net->cand[2 * k];
                net->cand[2 * m2 + 1] = net->cand[2 * k + 1];
                m2++;
            }
        }
        n = m2;
    }

    if (partial_order && n > 1) {
        for (k = 0; k < n; k++) {
            int32_t tc = net->cand[2 * k];
            int32_t l, m2, ok = 1;
            if (net->cand[2 * k + 1] != 0 || !(net->flags[tc] & 4))
                continue;
            l = net->lft[tc];
            if (l < 0 || (int64_t)l - clk[tc] > 0)
                continue;
            for (m2 = net->pc_off[tc]; m2 < net->pc_off[tc + 1];
                 m2++) {
                if (clk[net->pc_t[m2]] != KN_DIS) {
                    ok = 0;
                    break;
                }
            }
            if (ok) {
                /* the reduced pick still goes through the delay
                 * expansion below, like the Python pipeline */
                net->cand[0] = tc;
                net->cand[1] = 0;
                n = 1;
                *reduced = 1;
                break;
            }
        }
    }

    if (ceiling == KN_INF_CEILING) {
        /* nothing finite to enumerate: earliest-style output */
        if (n > cap)
            return -n;
        for (k = 0; k < n; k++) {
            out[2 * k] = net->cand[2 * k];
            out[2 * k + 1] = net->cand[2 * k + 1];
        }
        for (k = 1; k < n; k++) {
            int32_t tc = out[2 * k], lo = out[2 * k + 1];
            int32_t pk = net->prio[tc];
            int32_t m2 = k - 1;
            while (m2 >= 0) {
                int32_t tm = out[2 * m2], lm = out[2 * m2 + 1];
                int32_t pm = net->prio[tm];
                if (lm > lo ||
                    (lm == lo &&
                     (pm > pk || (pm == pk && tm > tc)))) {
                    out[2 * m2 + 2] = tm;
                    out[2 * m2 + 3] = lm;
                    m2--;
                } else {
                    break;
                }
            }
            out[2 * m2 + 2] = tc;
            out[2 * m2 + 3] = lo;
        }
        return n;
    }

    needed = 0;
    for (k = 0; k < n; k++) {
        int32_t lo = net->cand[2 * k + 1];
        needed += full ? (int32_t)(ceiling - lo + 1)
                       : (ceiling == lo ? 1 : 2);
    }
    if (needed > cap)
        return -needed;
    m = 0;
    for (k = 0; k < n; k++) {
        int32_t tc = net->cand[2 * k], lo = net->cand[2 * k + 1];
        if (full) {
            for (q = lo; q <= ceiling; q++) {
                out[2 * m] = tc;
                out[2 * m + 1] = q;
                m++;
            }
        } else {
            out[2 * m] = tc;
            out[2 * m + 1] = lo;
            m++;
            if (ceiling != lo) {
                out[2 * m] = tc;
                out[2 * m + 1] = (int32_t)ceiling;
                m++;
            }
        }
    }
    /* insertion sort by (delay, priority, index) */
    for (k = 1; k < m; k++) {
        int32_t tc = out[2 * k], qd = out[2 * k + 1];
        int32_t pk = net->prio[tc];
        int32_t m2 = k - 1;
        while (m2 >= 0) {
            int32_t tm = out[2 * m2], qm = out[2 * m2 + 1];
            int32_t pm = net->prio[tm];
            if (qm > qd ||
                (qm == qd &&
                 (pm > pk || (pm == pk && tm > tc)))) {
                out[2 * m2 + 2] = tm;
                out[2 * m2 + 3] = qm;
                m2--;
            } else {
                break;
            }
        }
        out[2 * m2 + 2] = tc;
        out[2 * m2 + 3] = qd;
    }
    return m;
}
"""


def _digest() -> str:
    # a CRC, not hashlib: every default search loads this module, and
    # hashlib's OpenSSL import would add ~4 ms to each cold process
    payload = (CDEF + SOURCE).encode("utf-8")
    return format(zlib.crc32(payload), "08x")


def _cache_dirs() -> list[str]:
    """Candidate build directories, most preferred first."""
    here = os.path.dirname(os.path.abspath(__file__))
    tag = f"{_digest()}-py{sys.version_info[0]}{sys.version_info[1]}"
    dirs = [os.path.join(here, "_kernelc_build", tag)]
    override = os.environ.get("EZRT_KERNEL_CACHE")
    if override:
        dirs.insert(0, os.path.join(override, tag))
    dirs.append(
        os.path.join(
            tempfile.gettempdir(),
            f"ezrt-kernel-{os.getuid() if hasattr(os, 'getuid') else 0}",
            tag,
        )
    )
    return dirs


def _find_built() -> str | None:
    for cache in _cache_dirs():
        if not os.path.isdir(cache):
            continue
        for entry in sorted(os.listdir(cache)):
            if entry.startswith(_MODULE_NAME) and entry.endswith(".so"):
                return os.path.join(cache, entry)
    return None


def build(verbose: bool = False) -> str:
    """Compile the core into the first writable cache dir; returns the
    shared-object path.  Raises on any failure (callers that want the
    graceful path go through :func:`load`)."""
    existing = _find_built()
    if existing:
        return existing
    from cffi import FFI

    last_error: Exception | None = None
    for cache in _cache_dirs():
        try:
            os.makedirs(cache, exist_ok=True)
            ffi = FFI()
            ffi.cdef(CDEF)
            ffi.set_source(_MODULE_NAME, SOURCE)
            with tempfile.TemporaryDirectory(
                prefix="ezrt-kernel-build-"
            ) as tmp:
                so_path = ffi.compile(tmpdir=tmp, verbose=verbose)
                target = os.path.join(cache, os.path.basename(so_path))
                # atomic within a filesystem; fall back to a plain copy
                # when tempdir and cache live on different mounts
                try:
                    os.replace(so_path, target)
                except OSError:
                    import shutil

                    shutil.copy2(so_path, target)
            return target
        except Exception as exc:  # try the next candidate dir
            last_error = exc
    raise RuntimeError(
        f"could not build the kernel native core: {last_error}"
    ) from last_error


_loaded: tuple[object | None] | None = None


def native_module():
    """The compiled extension module (``.ffi`` / ``.lib``), or ``None``.

    Build failures are recorded on :data:`LOAD_ERROR` and never raised;
    the result is cached per process.  The ``EZRT_PURE`` gate is *not*
    applied here — :func:`load` checks it per call so tests can flip
    the environment variable without reloading the process.
    """
    global _loaded, LOAD_ERROR
    if _loaded is not None:
        return _loaded[0]
    try:
        path = _find_built() or build()
        spec = importlib.util.spec_from_file_location(_MODULE_NAME, path)
        if spec is None or spec.loader is None:
            raise ImportError(f"cannot load {path}")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        _loaded = (module,)
    except Exception as exc:
        LOAD_ERROR = exc
        _loaded = (None,)
    return _loaded[0]


def load():
    """The compiled module, or ``None`` (pure-Python fallback).

    ``None`` when ``EZRT_PURE=1`` is set or the build/import failed.
    """
    if os.environ.get(PURE_ENV) == "1":
        return None
    return native_module()


def available() -> bool:
    """Whether the compiled core is usable right now."""
    return load() is not None


if __name__ == "__main__":  # pragma: no cover - CI eager build
    print(build(verbose=True))
