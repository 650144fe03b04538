"""Pinned outputs of three small grid runs and one run of both methods,
the written files of eight simulate runs, and pinned verify ledgers of four
configs.

Each level's frontier, field, weight, potential w, freezing profile and
reports are hashed, and where the level ran the particles, their frontier
and detected jumps too; so is verify_suite's ledger, every verdict and
detail, as sorted JSON.  Of the simulate runs (two particle-only runs
that bin their snapshots into their own field, and the power_gap and
oscillatory families with both methods and with particle snapshots), the
bytes of every file written but meta.json are hashed; so are those of
two runs of CI's smoke config that keep every third step.  The digests were
recorded once and must not change under a refactor that claims identical
output.  Floating-point results may differ across numpy and scipy builds,
so the pin applies only to the versions it was recorded with, which CI
installs through .github/constraints.txt, and the test skips on any other.

To record new digests after a deliberate change of output, run this file
as a script: it prints the tables below, and names on stderr each digest
that differs from them, with its old and new value.
"""
import contextlib
import hashlib
import io
import json
import os
import sys
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
            "field": "0b4abdb6e99f9d090fac7064a10d6429d96fcee90670e0f1e0b1861f37b1c327",
            "nu": "059104310cb88026834356be1d17dc73b99cbe4a1d09d1eb1059acd856f6bf82",
            "w": "0e2363db09d80e4027301a81446d466196a57380614c766e5384dce3e46cd183",
            "profile": "0e62bb5479ae432a1d6de8fab48103c2eb7d9fd77d3645766f0667fc79c368c8",
            "jumps": "4315fb808167494dea7ecda0da2540f3f506c889b769746daa6a3001795aa398",
            "report.grid": "f1a495bbe1eabf3b10123ae4ade18569f93fc9c93f1197def6e58b6f7c41c29a",
            "report.nondegeneracy_constant": "64c1086eb6a8e8b383017e965d5e92759735bafd85891d5aecdd3e764ec53867",
            "report.obstacle": "11730ea2494d395941b04dd09451a3b0fcc5a12691e87a1809238687b4d9bbbd",
            "report.speed": "66765dc12b4cf85189faf7ed363bf8ad9fa3063e919731f03175d33a876635d9",
        },
        {
            "frontier": "4102e8f9934d5a96fcab920fa7780597082d7a864fa5dd7d79c65f72c402e128",
            "field": "a04938e698d396464cbec18654d30e5ee37e29a0b822b3ef23a4ac7e6a18f7da",
            "nu": "d675438973601566e547ea6d3db119fa0792f966bacca4a08e56f93d7b0143d3",
            "w": "e9627f46a6b90da76847aafa8208b0c672045295252d7282a330b36e98c441a0",
            "profile": "234abc7e33c820282689fd3ed5e030e3f14cd3bc089c0a75ca9d0c8a3751f1f9",
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
            "field": "dc8c3d67130dd6d578b8a02570daa39244cfbe55a5bf7db83d4f731f36c4684c",
            "nu": "7ca2257c3949e64c073b9ed5c8bed6f279af428eb3422476023241e5d3081e25",
            "w": "6ff3289a14b5ac981525d3bf75e4d74565f53f52e1b3db7f8cf9e23c3e366a1c",
            "profile": "85875ea9ed5fa9fb7cf7256edf326c12d244eeabea8e0075fe6c39618464c146",
            "jumps": "4315fb808167494dea7ecda0da2540f3f506c889b769746daa6a3001795aa398",
            "report.grid": "f51abd4de660a32efd2b533b97c16f0f7b3a4777f99bb4e18e5a821fa87aba99",
            "report.nondegeneracy_constant": "712eed3f44ae84298950470570d5cecb9451a0bcbf502da574773f363abfbd06",
            "report.obstacle": "eaadb0bc67356cbf7fb73f40a2922ea9f91561abc98db2ecae773430dea50164",
            "report.speed": "dc93b7ebd2dc6a8eafa1b7329314b1c92c728936ac258238282ed9b7d6b9a54c",
        },
        {
            "frontier": "2d6709376b9e5f5db2f2191c3c2c4d9f8036a550f88cffd039778eb3739f3e92",
            "field": "c042863846b1ca2521eea16971136be0e0d0e441d50f4deaecc87d82ca62be98",
            "nu": "95fce8dadbef9cdef8a4cd806acb6eb91a55140d3585a7af07e259c015249546",
            "w": "aee37ac3aa9643849ba59cbee9354f7169ce562639c2ff27c2a77f14c56ba4a1",
            "profile": "c796e5fd90eb6041042374bc187c539359726411f17428b4dc8df2060e167477",
            "jumps": "558c3df64f5b4f17c2b50f6122a5005b123bd112218a16932f229405cef53bab",
            "report.grid": "7cfb3b0a1d3333f5476ff8df523af7aba6e2f5976d8e6459c821c00a4af305db",
            "report.nondegeneracy_constant": "8040f59dc5078c6871710bbd6a7b930dcc82690d1866f031a13ac0a5aa6a7144",
            "report.obstacle": "c9e7487904821f0d572bcd3d5bb79d67e23f852630439ede403b766697c6505e",
            "report.speed": "36bc40c23b576ddad0fc827e9f8b075b012980876f13e2a80509184192bca1bb",
        },
        {
            "frontier": "95b716b50490a0d56764143badee63e5e2c25cdede8dede5f901a6863ce54afa",
            "field": "ae095a51f311697840ac612507921635e25d672063546b99992d2c67defe9767",
            "nu": "bcc1f0430b616fa15c3576cce926cb519f29c78353077b231580851cce6a3c6e",
            "w": "405e5561d4afc114e89ea32e0d4a65f32a2b19c7e810a808de8d0b1ec195d10e",
            "profile": "a709c25cd011a0e03e132390c5f7d0a35155fb63061d966c76ecf06c97188a08",
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
            "field": "3ff3b32de17625c670f0d6ebe0602f57572d1908b15979fa63ef12136c48786d",
            "nu": "91f0c081d7982a19c32195c4a69802e3275941af35b6a869c04bcfaf3144aa34",
            "w": "d4664e8e89e5653eed4770b3f8ad57f3b1e4fd6d165013f4ef0ced992527fcd0",
            "profile": "d817eda7a331992053c6f6f7f8213cd3bb409bb186af015a51aa868b2e687aed",
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
            "field": "3ff3b32de17625c670f0d6ebe0602f57572d1908b15979fa63ef12136c48786d",
            "nu": "91f0c081d7982a19c32195c4a69802e3275941af35b6a869c04bcfaf3144aa34",
            "w": "d4664e8e89e5653eed4770b3f8ad57f3b1e4fd6d165013f4ef0ced992527fcd0",
            "profile": "d817eda7a331992053c6f6f7f8213cd3bb409bb186af015a51aa868b2e687aed",
            "jumps": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
            "report.grid": "04f7ffe20e73208d2d0ce5724d6dd9fd1e569946e586b1ce7ece74cae7cfc561",
            "report.nondegeneracy_constant": "50759925406dda672038555573d37c51f85fb52a82a95ce092e9777760a42a43",
            "report.obstacle": "e79618355b55a0d987c8aad59d9518c32819b74965bccb064315753400e286b1",
            "report.speed": "51198d67d34e96f7f9621c9389d6b2f8bb815ad4deb5b0769bc791c2684b4b55",
        },
    ],
}


# CI's smoke config
SMOKE = {
    "scenario_id": "smoke", "alpha": 0.7, "method": "both",
    "density": {"family": "piecewise_constant", "breaks": [0.0, 1.5],
                "values": [0.6667]},
    "n_particles": 500, "dt": 0.002, "dx": 0.05, "t_end": 0.1,
    "thresholds": {"interior_margin": 0.05}}

# verify_suite's ledger of CI's smoke config, of the README demo cut to
# t_end = 0.2, and of the two band ladders, whose ledgers each hold one fail
LEDGER_CONFIGS = {
    "smoke": SMOKE,
    "readme-demo": {**CONFIGS["readme-demo-both"], "n_particles": 20000},
    "grid-ladder-tiny": CONFIGS["grid-ladder-tiny"],
    "band-ladder": CONFIGS["band-ladder"],
}

LEDGER_DIGESTS = {
    "band-ladder": "9a3c3830167ea241baf0e1db53d32d8e678cd1384ad2c172f39aeb92020d2cdf",
    "grid-ladder-tiny": "42bd687dfd6b7572a624096857ea9e9d7f85275b49c122ffb35f138287c90c94",
    "readme-demo": "3636afcec49873dc7e3f7dc02533a49e89b15fff86e7802597b2565afc9484cb",
    "smoke": "bf2980792b3e3e0fe527a688e341d23cae5cd0a2adb66b2556d772b587afb428",
}


# simulate runs whose written files are pinned: particle-only runs
# with a snapshot every step, 301 rows of field.npy, one per sampling; and
# the power_gap and oscillatory families at alpha = 1, each with both methods
# and particle-only with a snapshot every 5th step
FAMILIES = {
    "power-gap": {"family": "power_gap", "alpha": 1.0, "c": 0.8, "n": 1,
                  "delta": 1.0},
    "oscillatory": {"family": "oscillatory", "alpha1": 0.5, "alpha2": 1.5,
                    "a1": 0.8, "p": 0.5, "q": 0.5, "n_levels": 3},
}
WRITTEN_CONFIGS = {
    **{f"snapshot-{sampling}": {
        "scenario_id": f"snapshot-{sampling}", "alpha": 0.7, "method": "particle",
        "density": SMOKE["density"], "n_particles": 500, "dt": 1e-3, "dx": 0.05,
        "t_end": 0.3, "seed": 5, "snapshot_every": 1, "sampling": sampling}
       for sampling in ("stratified", "uniform")},
    **{f"{family}{suffix}": {**SMOKE, "alpha": 1.0, "density": density, **extra}
       for family, density in FAMILIES.items()
       for suffix, extra in (("", {}), ("-snapshots", {"method": "particle",
                                                       "snapshot_every": 5}))},
    # CI's smoke config (50 steps) keeping every third step, with the grid
    # and particle-only with a snapshot every fourth: the last step is on
    # neither period, and 3 does not divide 4
    **{f"smoke-{method}-sampled": {**SMOKE, "method": method, "sample_every": 3, **extra}
       for method, extra in (("grid", {}), ("particle", {"snapshot_every": 4}))},
}

WRITTEN_DIGESTS = {
    "oscillatory": {
        "L0/field.npy": "05deb2beb445bf66aed3fc4975800783b36498ef2a15910f6047671f841c84b1",
        "L0/frontier.csv": "a84cdfb5d63c12ffa78cd138ccdfd7a38f4990fb0e3c959fa9e34db628c547c2",
        "L0/jumps.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "L0/nu.npy": "481c1ddd99a4b9d080b80117e154b168fed9219af10127002a1f9c3cf5339727",
        "L0/profile.csv": "aea0bb55406a77500dcbca9b242ad69dd24e1345e8f3405f37cf198146934273",
        "L0/w.npy": "97e5372957d93cba964179f3ef582ebeb37b6615bc33226cca2083ad521e4aa8",
        "field.npy": "05deb2beb445bf66aed3fc4975800783b36498ef2a15910f6047671f841c84b1",
        "frontier.csv": "a84cdfb5d63c12ffa78cd138ccdfd7a38f4990fb0e3c959fa9e34db628c547c2",
        "jumps.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "nu.npy": "481c1ddd99a4b9d080b80117e154b168fed9219af10127002a1f9c3cf5339727",
        "profile.csv": "aea0bb55406a77500dcbca9b242ad69dd24e1345e8f3405f37cf198146934273",
        "summary.json": "178f781ccd99d6595dfa9174220d337b257bdc540eaecb1e67d86ce517031574",
        "w.npy": "97e5372957d93cba964179f3ef582ebeb37b6615bc33226cca2083ad521e4aa8",
    },
    "oscillatory-snapshots": {
        "L0/field.npy": "ee7a4c5edfcadace4dcaf493d6bdef9d1f9ce145bee1e66e68ad9a3d5c174fbb",
        "L0/frontier.csv": "829f6141bedf2e986387fe0483823f90e16bf313757cd6cce6b49cf293203df1",
        "L0/jumps.json": "2418dcb17e967d07ac007fb10ae98b6bea7eee58ae22dc8e4f825dd7633d7754",
        "field.npy": "ee7a4c5edfcadace4dcaf493d6bdef9d1f9ce145bee1e66e68ad9a3d5c174fbb",
        "frontier.csv": "829f6141bedf2e986387fe0483823f90e16bf313757cd6cce6b49cf293203df1",
        "jumps.json": "2418dcb17e967d07ac007fb10ae98b6bea7eee58ae22dc8e4f825dd7633d7754",
        "summary.json": "f7fb0d7535bb48911b8f88821e377f674f7371b86fbe785af86f55b021b5417e",
    },
    "power-gap": {
        "L0/field.npy": "e1367bb251154d32fedc19748a2a11d3eb7ef0492d92e22bc5dd3b0f939c484d",
        "L0/frontier.csv": "c10984f0c5512969daa84f04008146e6ad319669193d44fb4928ffc70f6e06de",
        "L0/jumps.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "L0/nu.npy": "40c4e85353ad23453db361a8f3b9613cba6ffe2334df9d7ff44ead64ffefb12c",
        "L0/profile.csv": "3ecaa2c1d75ad8b0a71d9eee330122379cc892d5613c4517f2c6166c0f23db48",
        "L0/w.npy": "c18a8d4b1cb7b463cfa0fd468a45442e67f124d832cd142c9e8c26cd6bb12400",
        "field.npy": "e1367bb251154d32fedc19748a2a11d3eb7ef0492d92e22bc5dd3b0f939c484d",
        "frontier.csv": "c10984f0c5512969daa84f04008146e6ad319669193d44fb4928ffc70f6e06de",
        "jumps.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "nu.npy": "40c4e85353ad23453db361a8f3b9613cba6ffe2334df9d7ff44ead64ffefb12c",
        "profile.csv": "3ecaa2c1d75ad8b0a71d9eee330122379cc892d5613c4517f2c6166c0f23db48",
        "summary.json": "7bfc8d0b527f7e8bc1c6deade01fd5ed01c3bda3f2679560ef9c0b6c39bbf6ef",
        "w.npy": "c18a8d4b1cb7b463cfa0fd468a45442e67f124d832cd142c9e8c26cd6bb12400",
    },
    "power-gap-snapshots": {
        "L0/field.npy": "55731a6775fbc8ebbf448e91b6a572cb64fcc08733e98cc02030e61967d75845",
        "L0/frontier.csv": "bf9783e94550fed413c9f00406b4b0dce06b736402bed8ff62d5b3cf70907ec9",
        "L0/jumps.json": "dfc9fb60abb945ee77c1729a1f5bf689b1c09328a913c3403d18060a147a02e2",
        "field.npy": "55731a6775fbc8ebbf448e91b6a572cb64fcc08733e98cc02030e61967d75845",
        "frontier.csv": "bf9783e94550fed413c9f00406b4b0dce06b736402bed8ff62d5b3cf70907ec9",
        "jumps.json": "dfc9fb60abb945ee77c1729a1f5bf689b1c09328a913c3403d18060a147a02e2",
        "summary.json": "22c299150a908ec826153efc13f6a82900bf92152e229ee4187bbb7f671bfa4e",
    },
    "smoke-grid-sampled": {
        "L0/field.npy": "815e1cc515507cbea27c349619b8975e93505e316659b02841f96c2e8de3101e",
        "L0/frontier.csv": "eaa760489044017f214d394661796e6559fae226f5f883328a5fe498a137aec5",
        "L0/jumps.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "L0/nu.npy": "07f911527a403ad7501ccbe617399f1eb4a1030b9431957d5c1b2bbe380e6e86",
        "L0/profile.csv": "c01afe48f8334abc54e6b339a92ec0a713cb11e545670c16b9ed69f1b1f33643",
        "L0/w.npy": "359ac47a480ea42e931f8fa19b3024233feea696e2c6fff6344f94f66771c5d6",
        "field.npy": "815e1cc515507cbea27c349619b8975e93505e316659b02841f96c2e8de3101e",
        "frontier.csv": "eaa760489044017f214d394661796e6559fae226f5f883328a5fe498a137aec5",
        "jumps.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "nu.npy": "07f911527a403ad7501ccbe617399f1eb4a1030b9431957d5c1b2bbe380e6e86",
        "profile.csv": "c01afe48f8334abc54e6b339a92ec0a713cb11e545670c16b9ed69f1b1f33643",
        "summary.json": "0f3216948a7a66f8c0e19390583edb18d307ebfdf034633fb9a8639d93372f60",
        "w.npy": "359ac47a480ea42e931f8fa19b3024233feea696e2c6fff6344f94f66771c5d6",
    },
    "smoke-particle-sampled": {
        "L0/field.npy": "a8ef69ac5c5fa67715630cba5191e5260f97687178f4da83d1559cb91b322a14",
        "L0/frontier.csv": "266740ccfcd3adb5d1ccebcd4af40e441a468d57c26f72dfb5584351476e0853",
        "L0/jumps.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "field.npy": "a8ef69ac5c5fa67715630cba5191e5260f97687178f4da83d1559cb91b322a14",
        "frontier.csv": "266740ccfcd3adb5d1ccebcd4af40e441a468d57c26f72dfb5584351476e0853",
        "jumps.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "summary.json": "2acdefe57dac835dadeae21a13726663b94b17b3a4e49bd3a79b8dda28c4f75d",
    },
    "snapshot-stratified": {
        "L0/field.npy": "d87aca656991ec856af3b214be95c00d57550bf2abf79793b79907e832a91df7",
        "L0/frontier.csv": "c00cb8e0a1d218944f3fd4aeaaf717af30c73e2c7278ed4bcf3002afeeb21790",
        "L0/jumps.json": "18cdd5ab3669a375837c69f33d6b35182f6959f8e205b8eddcf6daba97771971",
        "field.npy": "d87aca656991ec856af3b214be95c00d57550bf2abf79793b79907e832a91df7",
        "frontier.csv": "c00cb8e0a1d218944f3fd4aeaaf717af30c73e2c7278ed4bcf3002afeeb21790",
        "jumps.json": "18cdd5ab3669a375837c69f33d6b35182f6959f8e205b8eddcf6daba97771971",
        "summary.json": "1306596f6c3bd1226f263beb781c8ed4108294d87bcb16e858f4373767ff0d96",
    },
    "snapshot-uniform": {
        "L0/field.npy": "552115355ecb8da74f56f20610cd1eb2e922cb02c94acf6f629daf74c24f8ce7",
        "L0/frontier.csv": "c15a6b8f43b48c87d4a4c25b49467870670ec6391e6ae053f34519671a11bdf9",
        "L0/jumps.json": "365c02815a53dbf9dfeeca487a77dc212bfb6bb9698eeaa77a97d563857cd150",
        "field.npy": "552115355ecb8da74f56f20610cd1eb2e922cb02c94acf6f629daf74c24f8ce7",
        "frontier.csv": "c15a6b8f43b48c87d4a4c25b49467870670ec6391e6ae053f34519671a11bdf9",
        "jumps.json": "365c02815a53dbf9dfeeca487a77dc212bfb6bb9698eeaa77a97d563857cd150",
        "summary.json": "c23595356bb7278860e2f3a13cf37f13412a80d092946cf94958644369394380",
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
        "field": _sha(fld.x, fld.t, fld.values),
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
    """sha256 of each file but meta.json that simulate writes for the
    config name, by its path under the run directory.  The run is made in
    the directory tmp with outdir "out", which summary.json records."""
    raw = {**WRITTEN_CONFIGS[name], "outdir": "out"}
    cfg = tmp / f"{name}.json"
    cfg.write_text(json.dumps(raw), encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(tmp)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", str(cfg)]) == 0
    finally:
        os.chdir(cwd)
    run = tmp / "out" / raw["scenario_id"]
    return {f.relative_to(run).as_posix(): hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(run.rglob("*")) if f.is_file() and f.name != "meta.json"}


# marks a test that compares against DIGESTS, WRITTEN_DIGESTS or
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
@pytest.mark.parametrize("name", ["snapshot-stratified", "snapshot-uniform"])
def test_particle_snapshot_files_match_the_pin(name, tmp_path):
    assert written_digests(name, tmp_path) == WRITTEN_DIGESTS[name]


@pinned
@pytest.mark.parametrize("name", sorted(f"{family}{suffix}" for family in FAMILIES
                                        for suffix in ("", "-snapshots")))
def test_family_run_files_match_the_pin(name, tmp_path):
    assert written_digests(name, tmp_path) == WRITTEN_DIGESTS[name]


@pinned
@pytest.mark.parametrize("name", ["smoke-grid-sampled", "smoke-particle-sampled"])
def test_sampled_run_files_match_the_pin(name, tmp_path):
    assert written_digests(name, tmp_path) == WRITTEN_DIGESTS[name]


@pinned
@pytest.mark.parametrize("name", sorted(LEDGER_CONFIGS))
def test_verify_ledger_matches_the_pin(name):
    assert ledger_digest(name) == LEDGER_DIGESTS[name]


def _report_change(where: str, old, new: str) -> None:
    """One stderr line for a digest that differs from its pin."""
    if old != new:
        print(f"{where}: {old} → {new}", file=sys.stderr)


if __name__ == "__main__":
    # prints the pin tables; every digest that differs from them is also
    # named on stderr as "name Lk key: old → new"
    for name in sorted(CONFIGS):
        print(f'    "{name}": [')
        pins = DIGESTS.get(name, [])
        for level, d in enumerate(scenario_digests(name)):
            pin = pins[level] if level < len(pins) else {}
            print("        {")
            for key, value in d.items():
                print(f'            "{key}": "{value}",')
                _report_change(f"{name} L{level} {key}", pin.get(key), value)
            print("        },")
        print("    ],")
    print("WRITTEN_DIGESTS = {")
    for name in sorted(WRITTEN_CONFIGS):
        print(f'    "{name}": {{')
        pin = WRITTEN_DIGESTS.get(name, {})
        with tempfile.TemporaryDirectory() as tmp:
            for f, value in written_digests(name, Path(tmp)).items():
                print(f'        "{f}": "{value}",')
                _report_change(f"{name} {f}", pin.get(f), value)
        print("    },")
    print("}")
    print("LEDGER_DIGESTS = {")
    for name in sorted(LEDGER_CONFIGS):
        value = ledger_digest(name)
        print(f'    "{name}": "{value}",')
        _report_change(f"{name} ledger", LEDGER_DIGESTS.get(name), value)
    print("}")
