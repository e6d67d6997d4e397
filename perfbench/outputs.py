"""Checks of what the program produces inside a request.

Several requests end in a verdict only: a passing verify_identity reports
`passed` and no coefficients, and the listing criteria report `passed` and an
empty detail.  Their digests then show only that the program's own check
agreed with itself.  OutputCheck therefore rebinds, in every module namespace
that holds them, the functions whose results those verdicts rest on, and
compares each result with the one recorded in reference.json for the same
arguments:

  enumerate_class(n, cls)                 the whole listing, in order
  gf_class, gf_c_variant, gf_c_chain_stage  the order and every coefficient
  the six maps                            the image, for the inputs whose
                                          parts hash to 0 mod MAP_SAMPLE

A call whose arguments the reference does not hold is not checked, so a
change that calls these functions with other arguments, or not at all, still
passes on its final outputs.  Values are CPython hashes of int tuples, which
do not depend on PYTHONHASHSEED, or sha256 digests of a repr.
"""

from __future__ import annotations

import functools
import hashlib

from tracing import MAPS, _arg, library_modules, rebind

# One map call in MAP_SAMPLE is checked; listing_maps makes about 130k.
MAP_SAMPLE = 64


def _listing(result) -> int:
    return hash(tuple(p.parts for p in result))


def _series(result) -> int:
    return hash((result.order, tuple(result.coeffs)))


def _image(result) -> str:
    return hashlib.sha256(repr(result).encode("utf-8")).hexdigest()[:16]


def _map_key(name):
    def key(args, kwargs):
        p = args[0]
        if hash(p.parts) % MAP_SAMPLE:
            return None
        return f"{name}|{p}|{_arg(args, kwargs, 1, 'bit')}" if name == "d_lift" else f"{name}|{p}"

    return key


class OutputCheck:
    """Compares results with `expected` ({key: value}); with None, records them."""

    def __init__(self, expected: dict | None) -> None:
        self.expected = expected
        self.recorded: dict[str, object] = {}
        self.mismatches = 0

    def observe(self, key: str, value) -> None:
        if self.expected is None:
            if self.recorded.setdefault(key, value) != value:
                raise AssertionError(f"{key} gave two different results")
        else:
            want = self.expected.get(key)
            if want is not None and want != value:
                self.mismatches += 1

    def install(self, lib) -> None:
        modules = library_modules(lib)

        def put(module, attr, key, value):
            original = getattr(module, attr)

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                name = key(args, kwargs)
                if name is not None:
                    self.observe(name, value(result))
                return result

            if rebind(modules, original, wrapper) == 0:
                raise RuntimeError(f"{module.__name__}.{attr} is bound nowhere")

        put(
            lib.partitions,
            "enumerate_class",
            lambda a, k: f"enumerate_class|{_arg(a, k, 0, 'n')}|{_arg(a, k, 1, 'cls').value}",
            _listing,
        )
        put(
            lib.series,
            "gf_class",
            lambda a, k: f"gf_class|{_arg(a, k, 0, 'cls').value}|{_arg(a, k, 1, 'order')}",
            _series,
        )
        put(
            lib.series,
            "gf_c_variant",
            lambda a, k: "gf_c_variant|{}|{}|{}".format(
                _arg(a, k, 0, "form"), _arg(a, k, 1, "order"), _arg(a, k, 2, "include_constant", True)
            ),
            _series,
        )
        put(
            lib.series,
            "gf_c_chain_stage",
            lambda a, k: f"gf_c_chain_stage|{_arg(a, k, 0, 'stage')}|{_arg(a, k, 1, 'order')}",
            _series,
        )
        for name in MAPS:
            put(lib.maps, name, _map_key(name), _image)
