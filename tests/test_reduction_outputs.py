"""Generated instances and certificate translations, pinned byte for byte.

For every generator kind, on the worked examples and on a seeded sweep of
random sources with a planted solution, the sha256 of each output text must
equal the recorded digest: the target ``k``, the instance file, the label
map, the lifted certificate and the solution projected back from it. A
change to a generator or to either translation direction that alters any
byte fails here.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from connmatch import fileio
from connmatch.graphs import VertexWeightedGraph
from connmatch.reductions import (
    Cnf,
    SetCoverInstance,
    SteinerInstance,
    gen_bip4,
    gen_crosscomp,
    gen_planar_bipartite,
    gen_planar_subcubic,
    gen_setcover_to_wcs,
    gen_starlike,
    gen_wcs_to_wcm,
    lift_certificate,
    project_certificate,
)
from conftest import planted_source

SWEEP = 24  # random sources per kind

REFERENCE_FORMULA = Cnf.build(5, [(1, -2, -4), (1, -3, 5), (-1, -2, 4), (2, 3, 5)])
REFERENCE_MONOTONE = Cnf.build(5, [(1, 2, 5), (2, 3, 4), (-2, -4, -5)])


def cases(kind: str):
    """(generated instance, source solution) pairs for one kind: the worked
    examples, then the seeded sweep."""
    if kind in ("starlike", "bip4"):
        gen = gen_starlike if kind == "starlike" else gen_bip4
        out = [(gen(REFERENCE_FORMULA), (False, True, False, False, True))]
    elif kind == "planar-bipartite":
        out = [(gen_planar_bipartite(REFERENCE_MONOTONE), (True, False, True, True, True))]
    elif kind == "crosscomp":
        f1 = Cnf.build(2, [(1, 1, 1), (-1, -1, -1)])
        f2 = Cnf.build(2, [(1, 2, 2)])
        out = [(gen_crosscomp([f1, f2]), ((True, True), 2))]
    elif kind == "steiner":
        ex1 = SteinerInstance.build(3, [(0, 1), (1, 2), (0, 2)], [0, 1], 1)
        ex2 = SteinerInstance.build(
            6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (4, 5)], [0, 2, 3], 3
        )
        out = [(gen_planar_subcubic(ex1), [(0, 1)]), (gen_planar_subcubic(ex2), [(0, 2), (0, 3)])]
    elif kind == "wcs-wcm":
        companion = VertexWeightedGraph(
            8, [(0, 1), (1, 2), (2, 3), (3, 4), (5, 0), (6, 5), (7, 6)], [6, 2, -1, 6, 4, -2, -3, 5]
        )
        out = [(gen_wcs_to_wcm(companion, 17), {0, 1, 2, 3, 4})]
    else:
        companion = SetCoverInstance.build(7, [{0, 1, 4}, {0, 1, 2, 3}, {2, 5}, {4, 5, 6}, {3}], 2)
        out = [(gen_setcover_to_wcs(companion), [1, 3])]
    rng = random.Random(f"reduction-outputs/{kind}")
    return out + [planted_source(kind, rng) for _ in range(SWEEP)]


def _solution_text(kind: str, solution) -> str:
    """The projected solution as ``connmatch map-cert --direction project`` writes it."""
    if kind in ("starlike", "bip4", "planar-bipartite"):
        return fileio.write_assignment_text(solution)
    if kind == "crosscomp":
        return fileio.write_assignment_text(*solution)
    if kind == "steiner":
        return fileio.write_tree_solution_text(solution[1])
    if kind == "setcover-wcs":
        return fileio.write_family_text(solution)
    return fileio.write_vertex_set_text(solution)


def output_texts(kind: str) -> dict:
    texts = {"k": [], "graph": [], "map": [], "lifted": [], "projected": []}
    for inst, solution in cases(kind):
        texts["k"].append(f"{inst.k}\n")
        if isinstance(inst.graph, VertexWeightedGraph):
            texts["graph"].append(fileio.write_wcs_text(inst.graph))
        else:
            texts["graph"].append(fileio.write_graph_text(inst.graph))
        texts["map"].append(fileio.write_map_text(inst.labels))
        cert = lift_certificate(inst, solution)
        if isinstance(cert, frozenset):
            texts["lifted"].append(fileio.write_vertex_set_text(cert))
        else:
            texts["lifted"].append(fileio.write_certificate_text(cert))
        texts["projected"].append(_solution_text(kind, project_certificate(inst, cert)))
    return {
        piece: hashlib.sha256("\x00".join(parts).encode()).hexdigest() for piece, parts in texts.items()
    }


DIGESTS = {
    'starlike': {
        'k': '721031bfd067dcaecdc535b51af9c6519f7fb11275d10428746918b04ad9a460',
        'graph': 'a265f8aae705e031a9c7947ce8c37177623546e5951fa2375cecdebad18b7fc1',
        'map': '6bbac9c26798e201b4accffd73326f8d67c46366a3fbdf78efbc5592c1782857',
        'lifted': '404f3be97cc7aba8aca6a13e8a3de357ba57ddb05e19c4aaeeb0c776f7edc1e8',
        'projected': 'f88e37afbd9a2455c8c3c1b9a570551101ea947be40fa1ae6b248317e4393ee2',
    },
    'bip4': {
        'k': '124ff19d44ec3a08857cdc0b22c1b3c859a9d6e42d3aba79fed5b20be8fd41ef',
        'graph': '6f03361e1b96bfd46afa24da5b3b84ea32655606acfb79bd9c52ec1e4aa3ba48',
        'map': '31f2d73808e0222fed7a701b2bcfe755e5bf8b0e414c1f7edf48bf35f5d09aab',
        'lifted': '75ae86811576b13f49bd47a8a9d28065e8ee81d446578b3de7f5c9da1102c5a3',
        'projected': 'd5bfab053693a94c6328ad34d25d21a4dd994307c86f61c3895dfd47a280455e',
    },
    'planar-bipartite': {
        'k': 'a47b36580b902cce582e607ca18254231d3e2cac6d1c723da03542db56c4c3d7',
        'graph': '9ffb023f27221d680974397bf71301b5b59c8229004286f954d2c33c80af8a64',
        'map': 'f26c7890fb5f689750437ceaf6c1f1a6644f84015d3505fc9821043c145d063e',
        'lifted': '255515a55bcf1165d0260b92fcb1ec91eee87826084a1aa52f09eab1effe90e8',
        'projected': 'd6795e664e5fd4ecd333dc455bd36a84fcc3c40882d986eeb3564a96f32fcaa9',
    },
    'steiner': {
        'k': '9aa94d45e5dea868deae30a35f1f0eb76040df2ab9a34ef3ac6da864314971d2',
        'graph': '993494902af40ae6e4b28bf7fd396c7711704c8446703f47f9f646373b4257f1',
        'map': '71b8dba34d671ce840ed8dde0b0339ae932d410e325016cb4a62add9ed17a415',
        'lifted': '6f76acaa942eee78196df2dd410f201d6858eae94195be2988da9ab0d9b6d678',
        'projected': '9a227f23800d976537e79087a2d312b9489946ed53adba1a9626628c50390986',
    },
    'crosscomp': {
        'k': '6ed0dcf37c85ac1b5073a4eb718cedd2d3821112b267b15674c4126f6e422485',
        'graph': 'a2e15d2f3b0f4ff120cbf65f76f202557545aeb2f8c06b347c9a7c79ab366458',
        'map': 'd040782382a27e137346c48a8d819a8160d79893cb10a73e4f965da18126c06e',
        'lifted': '60ff02a8055e99fcd6782e9eff98d164ceebd2613786680733cba21bbb1dcb47',
        'projected': 'c8226be95e212fad63f4408d7fe323177cde9fbd898e94024ca9af70c1cb1361',
    },
    'wcs-wcm': {
        'k': '3642027670e9384de6a7c5325316ff46d0dd8e2895949c2de8b04b0d101f5e20',
        'graph': '002c8e6a838e2acfaee3f20c988f6ae0db694c75d7a0f4c9c4e5f595d2528198',
        'map': '7f54b70eb2e81b3b9d7aafba70029728312f155b2cc1bc93f4c86f5dc3a0e214',
        'lifted': '3e2838a285ea7c18d03d99959c4f5496a9a7416d29318b842c1d1b2046d0f10a',
        'projected': 'f8969a7086c0c56d9ad5d008ed6e2c5c54d17daf4bc5a20559b80c4e06798c87',
    },
    'setcover-wcs': {
        'k': '351f64a46868d18c85084ba6a73a5e056cdb3a6b2e73fca508a2ffadc6669913',
        'graph': 'bf478fa1d7b644ac322e299d6efc9300f1951558c23665a24c915e93c59b2b7e',
        'map': '86e44434c5995b9b2e9c060536def67b58c3b3c3fad0ad7a90807afec60e85ba',
        'lifted': 'd13f0c5b32356b37b847616db9d2368338b4f5fc24ce9984db4b7f30e99ab79e',
        'projected': '445e07e9c171689691e52a85cccaf0917c591c19ebe366095c6dc475e625ef98',
    },
}


@pytest.mark.parametrize("kind", sorted(DIGESTS))
def test_generator_outputs_are_pinned(kind):
    assert output_texts(kind) == DIGESTS[kind]


if __name__ == "__main__":  # print the digest table for the current code
    from connmatch.cli import GENERATE_KINDS

    for kind in GENERATE_KINDS:
        print(f"    {kind!r}: {{")
        for piece, digest in output_texts(kind).items():
            print(f"        {piece!r}: {digest!r},")
        print("    },")
