"""Pinned outputs of three small grid runs and one run of both methods,
the written files of two particle-only runs, and pinned verify ledgers of
two configs.

Each level's frontier, field, weight, potential w, freezing profile and
reports are hashed, and where the level ran the particles, their frontier
and detected jumps too; so is verify_suite's ledger, every verdict and
detail, as sorted JSON.  Of the particle-only runs, which bin their
snapshots into their own field, the bytes of the files simulate writes
are hashed.  The digests were recorded once and must not change
under a refactor that claims identical output.  Floating-point results may
differ across numpy and scipy builds, so the pin applies only to the
versions it was recorded with, which CI installs through
.github/constraints.txt, and the test skips on any other.

To record new digests after a deliberate change of output, run this file
as a script: it prints the table below.
"""
import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from stefanlab.cli import main
from stefanlab.exporters import jsonify
from stefanlab.harness import run_scenario, scenario_from_dict, verify_suite
from stefanlab.potential import compute_w

PINNED_VERSIONS = {"numpy": "2.4.6", "scipy": "1.17.1"}

BAND = {"family": "piecewise_constant", "breaks": [0.2, 0.6, 3.2667],
        "values": [1.5, 0.15]}
CONFIGS = {
    # the benchmark's reduced grid ladder: three levels, a jump on each
    "grid-ladder-tiny": {
        "scenario_id": "grid-ladder", "density": BAND, "alpha": 2.0,
        "method": "grid", "dx": 0.04, "dt": 2e-3, "t_end": 0.2,
        "refinement_levels": 3, "seed": 1},
    # the same band on two levels to t_end = 1: its analysis reads a narrow
    # window of columns on every level, and each level jumps
    "band-ladder": {
        "scenario_id": "band-ladder", "density": BAND, "alpha": 2.0,
        "method": "grid", "dx": 0.04, "dt": 2e-3, "t_end": 1.0,
        "refinement_levels": 2, "seed": 1},
    # the README demo's grid route, cut to t_end = 0.2
    "readme-demo-grid": {
        "scenario_id": "uniform-demo",
        "density": {"family": "piecewise_constant", "breaks": [0.0, 1.5],
                    "values": [0.6667]},
        "alpha": 0.7, "method": "grid", "n_particles": 20000, "dt": 1e-3,
        "dx": 0.02, "t_end": 0.2, "seed": 7, "refinement_levels": 1},
    # the README demo with both methods, cut to t_end = 0.2 and 2000
    # particles: its reports hold the particle route and the comparison
    "readme-demo-both": {
        "scenario_id": "uniform-demo",
        "density": {"family": "piecewise_constant", "breaks": [0.0, 1.5],
                    "values": [0.6667]},
        "alpha": 0.7, "method": "both", "n_particles": 2000, "dt": 1e-3,
        "dx": 0.02, "t_end": 0.2, "seed": 7, "refinement_levels": 1},
}

DIGESTS = {
    "band-ladder": [
        {
            "frontier": "7d33873190a481069b5fac1a6fc42c50cdc2ea185eb6c606cf0bcffee3008fc6",
            "field": "105ad36714ef38c054e771eb24a8f551b5119a98c1362bec8b4b9eddf0f3a0e8",
            "nu": "059104310cb88026834356be1d17dc73b99cbe4a1d09d1eb1059acd856f6bf82",
            "w": "0e2363db09d80e4027301a81446d466196a57380614c766e5384dce3e46cd183",
            "profile": "f32f562c70aea1daed60b76ea1347774675e62ab1df5b5bcc76d0ae279573292",
            "jumps": "4315fb808167494dea7ecda0da2540f3f506c889b769746daa6a3001795aa398",
            "report.grid": "f1a495bbe1eabf3b10123ae4ade18569f93fc9c93f1197def6e58b6f7c41c29a",
            "report.nondegeneracy_constant": "64c1086eb6a8e8b383017e965d5e92759735bafd85891d5aecdd3e764ec53867",
            "report.obstacle": "11730ea2494d395941b04dd09451a3b0fcc5a12691e87a1809238687b4d9bbbd",
            "report.speed": "66765dc12b4cf85189faf7ed363bf8ad9fa3063e919731f03175d33a876635d9",
        },
        {
            "frontier": "4102e8f9934d5a96fcab920fa7780597082d7a864fa5dd7d79c65f72c402e128",
            "field": "4eb88ff813943d61bae6483b12d6214bb456fc736bbd34f54d56bae4ab7a27d3",
            "nu": "d675438973601566e547ea6d3db119fa0792f966bacca4a08e56f93d7b0143d3",
            "w": "e9627f46a6b90da76847aafa8208b0c672045295252d7282a330b36e98c441a0",
            "profile": "6164bfd106f4933a5234fc364bcc8ef85e77b0c3373ff3ad5a4466f50906cfb7",
            "jumps": "5c40ace40d8ad0d2ee0967f2ed0912754c626128bafb83272df4a5735474b2dd",
            "report.grid": "8b64127200bdc0b76e41bbd5c6e533e9f56305db55da10b6feab2622dac16847",
            "report.nondegeneracy_constant": "bdad6e01ebf98faaf7ef531922d00560832193d642c919254bcf602633e2661c",
            "report.obstacle": "c8f9ee97a8d7089d0cca9a07ddda69fad26012d765ea5c62a43f344348eb4777",
            "report.speed": "815ea3f090ff7656cf001017d44e7efaf515d424b9323a44b9952f148fb6149f",
        },
    ],
    "grid-ladder-tiny": [
        {
            "frontier": "3b6d1e16af4da91733f859b2293a54ecb7eea02be058bf3c51f189f7b5f539ec",
            "field": "28bf65eb24248b15a20f397fa7cb3b7b7b5233bdcaad0f601aa968d4a8beca5f",
            "nu": "7ca2257c3949e64c073b9ed5c8bed6f279af428eb3422476023241e5d3081e25",
            "w": "6ff3289a14b5ac981525d3bf75e4d74565f53f52e1b3db7f8cf9e23c3e366a1c",
            "profile": "f3426f21e97834e402c7be23e84061f020a2c03051f829f0093f7045bc3d4e14",
            "jumps": "4315fb808167494dea7ecda0da2540f3f506c889b769746daa6a3001795aa398",
            "report.grid": "f51abd4de660a32efd2b533b97c16f0f7b3a4777f99bb4e18e5a821fa87aba99",
            "report.nondegeneracy_constant": "712eed3f44ae84298950470570d5cecb9451a0bcbf502da574773f363abfbd06",
            "report.obstacle": "eaadb0bc67356cbf7fb73f40a2922ea9f91561abc98db2ecae773430dea50164",
            "report.speed": "dc93b7ebd2dc6a8eafa1b7329314b1c92c728936ac258238282ed9b7d6b9a54c",
        },
        {
            "frontier": "2d6709376b9e5f5db2f2191c3c2c4d9f8036a550f88cffd039778eb3739f3e92",
            "field": "fe5df00ec2ddcbc990d123fdaa9d0a8f326cae5612d3cf02d25121297bcd318b",
            "nu": "95fce8dadbef9cdef8a4cd806acb6eb91a55140d3585a7af07e259c015249546",
            "w": "aee37ac3aa9643849ba59cbee9354f7169ce562639c2ff27c2a77f14c56ba4a1",
            "profile": "f8cecc6f0d10a14a6081db6fd6d2b4346b606ceedd621e7ce323b70f842f2b32",
            "jumps": "558c3df64f5b4f17c2b50f6122a5005b123bd112218a16932f229405cef53bab",
            "report.grid": "7cfb3b0a1d3333f5476ff8df523af7aba6e2f5976d8e6459c821c00a4af305db",
            "report.nondegeneracy_constant": "8040f59dc5078c6871710bbd6a7b930dcc82690d1866f031a13ac0a5aa6a7144",
            "report.obstacle": "c9e7487904821f0d572bcd3d5bb79d67e23f852630439ede403b766697c6505e",
            "report.speed": "36bc40c23b576ddad0fc827e9f8b075b012980876f13e2a80509184192bca1bb",
        },
        {
            "frontier": "95b716b50490a0d56764143badee63e5e2c25cdede8dede5f901a6863ce54afa",
            "field": "a46560feff2a9aa2bc2d61dd04c8ed5e42b6bca354833847775bb2a7431ece64",
            "nu": "bcc1f0430b616fa15c3576cce926cb519f29c78353077b231580851cce6a3c6e",
            "w": "405e5561d4afc114e89ea32e0d4a65f32a2b19c7e810a808de8d0b1ec195d10e",
            "profile": "77601d0f253e25422886a8dac78412e1956daab1f9356c2e9f56003f42d2eef8",
            "jumps": "9723211c9dfb283c7e32eea4e66ff9bfc5dd1eac6ea7c72fd32d8edab1ba7ada",
            "report.grid": "baf78d9bae4c70ad83827142f5596f338987d07b4a3cb3d21f3bd0e7d3b8b6b9",
            "report.nondegeneracy_constant": "7c356de7e68136bc53d8327b84a8ccd85bd0ecef489746ea142b7daa249ea1e6",
            "report.obstacle": "0dde380919d0e77c657b239e373d9704f61f17d272cabc97cfb586a85ced937d",
            "report.speed": "cda7a2f74ea1905a3c6583b39eae52184d08f3dfb41710cca075bbc94aa62773",
        },
    ],
    "readme-demo-both": [
        {
            "frontier": "db4c5438fe576510426f0d4df80ed1f21cbf1a29f60ac4c66c7402badd1218c5",
            "field": "82ae2cdc2304787b6a7f21d939fcca9ec054faf5df9a618364f7b280ca93f148",
            "nu": "91f0c081d7982a19c32195c4a69802e3275941af35b6a869c04bcfaf3144aa34",
            "w": "d4664e8e89e5653eed4770b3f8ad57f3b1e4fd6d165013f4ef0ced992527fcd0",
            "profile": "ab9dba140326c80674374374b5f939a6c5d70b21905db50fb18fed26d9181a78",
            "jumps": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
            "p_frontier": "5aeb2c4b1508b411882a4b4131de0f0f996f5981402c17f1dba0645f2caf7454",
            "p_jumps": "1e99524bbf0c76f18894e64f2cd2946d0484ca5af6ccd48b7ebf431ad4f7b9b5",
            "report.compare": "dcdace8c082afafc5d2ee083c217d4a5e1aad7b5a2821ed0c24230929419f3bd",
            "report.grid": "04f7ffe20e73208d2d0ce5724d6dd9fd1e569946e586b1ce7ece74cae7cfc561",
            "report.nondegeneracy_constant": "50759925406dda672038555573d37c51f85fb52a82a95ce092e9777760a42a43",
            "report.obstacle": "e79618355b55a0d987c8aad59d9518c32819b74965bccb064315753400e286b1",
            "report.particle": "ac647fa973c70ded8da7ad8bd72340d667769fc1b72c5aa4841138873d656464",
            "report.speed": "51198d67d34e96f7f9621c9389d6b2f8bb815ad4deb5b0769bc791c2684b4b55",
        },
    ],
    "readme-demo-grid": [
        {
            "frontier": "db4c5438fe576510426f0d4df80ed1f21cbf1a29f60ac4c66c7402badd1218c5",
            "field": "82ae2cdc2304787b6a7f21d939fcca9ec054faf5df9a618364f7b280ca93f148",
            "nu": "91f0c081d7982a19c32195c4a69802e3275941af35b6a869c04bcfaf3144aa34",
            "w": "d4664e8e89e5653eed4770b3f8ad57f3b1e4fd6d165013f4ef0ced992527fcd0",
            "profile": "ab9dba140326c80674374374b5f939a6c5d70b21905db50fb18fed26d9181a78",
            "jumps": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
            "report.grid": "04f7ffe20e73208d2d0ce5724d6dd9fd1e569946e586b1ce7ece74cae7cfc561",
            "report.nondegeneracy_constant": "50759925406dda672038555573d37c51f85fb52a82a95ce092e9777760a42a43",
            "report.obstacle": "e79618355b55a0d987c8aad59d9518c32819b74965bccb064315753400e286b1",
            "report.speed": "51198d67d34e96f7f9621c9389d6b2f8bb815ad4deb5b0769bc791c2684b4b55",
        },
    ],
}


# verify_suite's ledger of CI's smoke config and of the README demo cut to
# t_end = 0.2
LEDGER_CONFIGS = {
    "smoke": {
        "scenario_id": "smoke", "alpha": 0.7, "method": "both",
        "density": {"family": "piecewise_constant", "breaks": [0.0, 1.5],
                    "values": [0.6667]},
        "n_particles": 500, "dt": 0.002, "dx": 0.05, "t_end": 0.1,
        "thresholds": {"interior_margin": 0.05}},
    "readme-demo": {**CONFIGS["readme-demo-both"], "n_particles": 20000},
}

LEDGER_DIGESTS = {
    "readme-demo": "3636afcec49873dc7e3f7dc02533a49e89b15fff86e7802597b2565afc9484cb",
    "smoke": "bf2980792b3e3e0fe527a688e341d23cae5cd0a2adb66b2556d772b587afb428",
}


# particle-only runs with a snapshot every step, 301 rows of field.npy, one
# per sampling
SNAPSHOT_CONFIGS = {
    f"snapshot-{sampling}": {
        "scenario_id": f"snapshot-{sampling}", "alpha": 0.7, "method": "particle",
        "density": {"family": "piecewise_constant", "breaks": [0.0, 1.5],
                    "values": [0.6667]},
        "n_particles": 500, "dt": 1e-3, "dx": 0.05, "t_end": 0.3, "seed": 5,
        "snapshot_every": 1, "sampling": sampling}
    for sampling in ("stratified", "uniform")}
SNAPSHOT_FILES = ("frontier.csv", "field.npy", "jumps.json")

SNAPSHOT_DIGESTS = {
    "snapshot-stratified": {
        "frontier.csv": "c00cb8e0a1d218944f3fd4aeaaf717af30c73e2c7278ed4bcf3002afeeb21790",
        "field.npy": "d87aca656991ec856af3b214be95c00d57550bf2abf79793b79907e832a91df7",
        "jumps.json": "18cdd5ab3669a375837c69f33d6b35182f6959f8e205b8eddcf6daba97771971",
    },
    "snapshot-uniform": {
        "frontier.csv": "c15a6b8f43b48c87d4a4c25b49467870670ec6391e6ae053f34519671a11bdf9",
        "field.npy": "552115355ecb8da74f56f20610cd1eb2e922cb02c94acf6f629daf74c24f8ce7",
        "jumps.json": "365c02815a53dbf9dfeeca487a77dc212bfb6bb9698eeaa77a97d563857cd150",
    },
}


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            h.update(part.encode())
        else:
            a = np.ascontiguousarray(part)
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(a.tobytes())
    return h.hexdigest()


def level_digests(res) -> dict:
    """One sha256 per output of a level's grid route, and of its particle
    route where it has one."""
    fr, fld, nu, prof = res.frontier, res.field, res.nu, res.profile
    w = compute_w(fld)
    particle = {}
    if res.p_frontier is not None:
        pf = res.p_frontier
        particle = {
            "p_frontier": _sha(pf.times, pf.lam, pf.dead_count, json.dumps(
                [rec.to_dict() for rec in pf.jumps], sort_keys=True)),
            "p_jumps": _sha(json.dumps([rec.to_dict() for rec in res.p_jumps],
                                       sort_keys=True)),
        }
    return {
        "frontier": _sha(fr.times, fr.lam, json.dumps(
            [rec.to_dict() for rec in fr.jumps], sort_keys=True)),
        "field": _sha(fld.x, fld.t, fld.values, fld.frontier_index, fld.lam),
        "nu": _sha(nu.x, nu.nu, nu.recorded),
        "w": _sha(w.x, w.t, w.w, w.tail_bound),
        "profile": _sha(prof.x, prof.s, prof.s_prime, prof.boundary_value,
                        "\n".join(prof.labels)),
        "jumps": _sha(json.dumps([rec.to_dict() for rec in res.jumps],
                                 sort_keys=True)),
        **particle,
        **{f"report.{key}": _sha(json.dumps(jsonify(rep), sort_keys=True))
           for key, rep in sorted(res.reports.items())},
    }


def scenario_digests(name: str) -> list:
    result = run_scenario(scenario_from_dict({**CONFIGS[name], "outdir": "unused"}),
                          write=False)
    return [level_digests(res) for res in result.levels]


def ledger_digest(name: str) -> str:
    ledger = verify_suite(scenario_from_dict({**LEDGER_CONFIGS[name],
                                              "outdir": "unused"}))
    return hashlib.sha256(
        json.dumps(jsonify(ledger), sort_keys=True).encode()).hexdigest()


def written_digests(name: str, tmp: Path) -> dict:
    """sha256 of each file in SNAPSHOT_FILES that simulate writes for the
    snapshot config name, run under the directory tmp."""
    raw = {**SNAPSHOT_CONFIGS[name], "outdir": str(tmp / "out")}
    cfg = tmp / f"{name}.json"
    cfg.write_text(json.dumps(raw), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", str(cfg)]) == 0
    run = tmp / "out" / raw["scenario_id"]
    return {f: hashlib.sha256((run / f).read_bytes()).hexdigest()
            for f in SNAPSHOT_FILES}


# marks a test that compares against DIGESTS, SNAPSHOT_DIGESTS or
# LEDGER_DIGESTS
pinned = pytest.mark.skipif(
    (np.__version__, scipy.__version__)
    != (PINNED_VERSIONS["numpy"], PINNED_VERSIONS["scipy"]),
    reason=f"digests pinned on numpy {PINNED_VERSIONS['numpy']} and scipy"
           f" {PINNED_VERSIONS['scipy']}; running numpy {np.__version__} and"
           f" scipy {scipy.__version__}")


@pinned
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_grid_outputs_match_the_pinned_digests(name):
    got = scenario_digests(name)
    assert len(got) == len(DIGESTS[name])
    for level, (have, want) in enumerate(zip(got, DIGESTS[name])):
        changed = sorted(k for k in want if have[k] != want[k])
        assert not changed, f"{name} L{level}: {changed} differ from the pin"


@pinned
@pytest.mark.parametrize("name", sorted(SNAPSHOT_CONFIGS))
def test_particle_snapshot_files_match_the_pin(name, tmp_path):
    assert written_digests(name, tmp_path) == SNAPSHOT_DIGESTS[name]


@pinned
@pytest.mark.parametrize("name", sorted(LEDGER_CONFIGS))
def test_verify_ledger_matches_the_pin(name):
    assert ledger_digest(name) == LEDGER_DIGESTS[name]


if __name__ == "__main__":
    for name in sorted(CONFIGS):
        print(f'    "{name}": [')
        for d in scenario_digests(name):
            print("        {")
            for key, value in d.items():
                print(f'            "{key}": "{value}",')
            print("        },")
        print("    ],")
    print("SNAPSHOT_DIGESTS = {")
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(SNAPSHOT_CONFIGS):
            print(f'    "{name}": {{')
            for f, value in written_digests(name, Path(tmp)).items():
                print(f'        "{f}": "{value}",')
            print("    },")
    print("}")
    print("LEDGER_DIGESTS = {")
    for name in sorted(LEDGER_CONFIGS):
        print(f'    "{name}": "{ledger_digest(name)}",')
    print("}")
