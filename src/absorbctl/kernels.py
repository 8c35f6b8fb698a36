"""The closed loop's innermost steps as straight-line Python, generated for
the plant's dimensions ``(n, k_out)`` alone.  States, stages and gain entries
are float locals; callables and gains are arguments, so one code object
serves every plant of those dimensions.  The arithmetic is that of the list
forms, entry by entry: stages ``y + half*k``, substeps ``y + sixth*(k1 +
2.0*k2 + 2.0*k3 + k4)``, Euler pieces ``a + b*length``, and sums of products
``0.0 + a_1*b_1 + a_2*b_2 + ...`` left to right."""

from __future__ import annotations

import functools
import linecache
from types import SimpleNamespace

__all__ = ["loop_kernels"]

_GENERATED = ("injection", "rk4_span", "euler")


def _seq(prefix: str, indices) -> str:
    """``"p0, p1, "``: an unpacking target, or the items of a list display."""
    return "".join(f"{prefix}{i}, " for i in indices)


def _sum(a: str, b: str, count: int) -> str:
    """``0.0 + a0 * b0 + a1 * b1 + ...``"""
    return "0.0" + "".join(f" + {a}{i} * {b}{i}" for i in range(count))


def _injection(depth: int, n: int, y: list[str]) -> list[str]:
    """Lines ``depth`` levels in: ``c_i = 0.0 + g_i0*d0 + ...`` with ``d_j = h_j - y_j``."""
    pad = "    " * depth
    return ([f"{pad}d{j} = h{j} - {yj}" for j, yj in enumerate(y)]
            + [f"{pad}c{i} = {_sum(f'g{i}_', 'd', len(y))}" for i in range(n)])


def _piece(depth: int, n: int, x: str, length: str) -> list[str]:
    """Lines ``depth`` levels in: ``b = f(x, u)``, ``u`` a copy of ``values[idx]``,
    then ``i_i = i_i + b_i*length`` for the piece of that ``length``."""
    pad = "    " * depth
    return ([f"{pad}length = {length}", f"{pad}{_seq('b', range(n))}= f([{x}], u)"]
            + [f"{pad}i{i} = i{i} + b{i} * length" for i in range(n)])


def _source(n: int, k_out: int) -> str:
    size, outs = 2 * n + k_out, range(k_out)
    gains = "".join(f"({_seq(f'g{i}_', outs)}), " for i in range(n))
    jac = "".join(f"({_seq(f'j{r}_', range(n))}), " for r in outs)
    c, h, x = _seq("c", range(n)), _seq("h", outs), _seq("x", range(n))
    lines = ["def injection(gain_rows, hz, y):",
             f"    {gains}= gain_rows", f"    {h}= hz", f"    {_seq('m', outs)}= y",
             *_injection(1, n, [f"m{j}" for j in outs]), f"    return [{c}]",
             "def rk4_span(plant, assm, correction, u_plant, u_obs):",
             "    f, h, jac_h, lyapunov = plant.f, plant.h, plant.jac_h, assm.lyapunov",
             f"    level = assm.absorbing_level\n    {gains}= assm.gain_rows",
             f"    def span(y, dt, n_sub):\n        {_seq('y', range(size))}= y",
             "        half = 0.5 * dt\n        sixth = dt / 6.0",
             "        nodes = []\n        for _ in range(n_sub):"]
    pad = "    " * 3
    # per stage: f(z, u_obs), h(z), lyapunov(z), f(x, u_plant), jac_h(z); a NaN V(z) is refused
    for k, s, step in ((1, "y", ""), (2, "s", "half"), (3, "s", "half"), (4, "s", "dt")):
        if step:
            lines += [f"{pad}s{p} = y{p} + {step} * k{k - 1}_{p}" for p in range(size)]
        lines += [f"{pad}z = [{_seq(s, range(n, 2 * n))}]\n{pad}fz = f(z, u_obs)",
                  f"{pad}{_seq('fz', range(n))}= fz\n{pad}{h}= h(z)",
                  *_injection(3, n, [f"{s}{p}" for p in range(2 * n, size)]),
                  f"{pad}vz = lyapunov(z)\n{pad}if not vz <= level:",
                  f"{pad}    {c}= correction([z], [[{c}]], [vz], [fz], assm)[0].tolist()",
                  f"{pad}{_seq(f'k{k}_', range(n))}= f([{_seq(s, range(n))}], u_plant)",
                  f"{pad}{jac}= jac_h(z)",
                  *(f"{pad}k{k}_{n + i} = fz{i} + c{i}" for i in range(n)),
                  *(f"{pad}k{k}_{2 * n + r} = {_sum(f'j{r}_', 'fz', n)}" for r in outs)]
    # each entry's update reads only its own old value, so it may overwrite it
    lines += [*(f"{pad}y{p} = y{p} + sixth * (k1_{p} + 2.0 * k2_{p} + 2.0 * k3_{p} + k4_{p})"
                for p in range(size)),
              f"{pad}nodes.append([{_seq('y', range(n))}])",
              f"        return [{_seq('y', range(size))}], nodes\n    return span",
              f"def euler(f, x, starts, values, t0, t1, N):\n    {x}= x",
              "    h_step = (t1 - t0) / N\n    last = len(starts) - 1",
              # f gets a copy of each segment's value, made as the walk enters it
              "    idx = bisect_right(starts, t0) - 1\n    u = [*values[idx]]",
              "    nxt = starts[idx + 1] if idx < last else inf\n    hi = t0",
              "    for k in range(1, N + 1):",
              # the last edge is t1 itself, where t0 + N*h_step may round off it
              "        lo, hi = hi, (t0 + k * h_step if k < N else t1)",
              "        while nxt <= lo:",
              "            idx += 1\n            u = [*values[idx]]",
              "            nxt = starts[idx + 1] if idx < last else inf",
              *(f"        i{i} = 0.0" for i in range(n)),
              # starts[idx] <= lo < nxt: the pieces are [lo, nxt), [nxt, ...) up to hi
              "        if hi > lo:\n            while nxt < hi:",
              *_piece(4, n, x, "nxt - lo"),
              "                lo = nxt\n                idx += 1",
              "                u = [*values[idx]]",
              "                nxt = starts[idx + 1] if idx < last else inf",
              *_piece(3, n, x, "hi - lo"),
              *(f"        x{i} = x{i} + i{i}" for i in range(n)), f"    return [{x}]"]
    return "from bisect import bisect_right\nfrom math import inf\n" + "\n".join(lines) + "\n"


@functools.cache
def loop_kernels(n: int, k_out: int) -> SimpleNamespace:
    """Compiled on first use, then cached: ``injection(gain_rows, hz, y)``,
    the output injection ``L (hz - y)``; ``rk4_span(plant, assm, correction,
    u_plant, u_obs)``, whose result ``(y, dt, n_sub) -> (y, nodes)`` takes
    ``n_sub`` RK4 substeps of the stacked ``(x, z, w)``, listing each ``x``,
    and calls ``correction(z, injection, V(z), fz, assm)`` on stacks of one outside
    the absorbing set;
    ``euler(f, x, starts, values, t0, t1, N)``, the Euler predictor's N equal
    steps of ``[t0, t1)`` (the last ending at ``t1`` exactly), walking an input
    record's ``starts`` and ``values`` with one index and calling ``f`` once
    per nonempty part of a segment in a step.  Tracebacks show generated lines."""
    source = _source(n, k_out)
    filename = f"<absorbctl.kernels n={n} k_out={k_out}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    exec(compile(source, filename, "exec"), namespace := {})
    return SimpleNamespace(**{name: namespace[name] for name in _GENERATED})
