"""Golden digests: the three contract files of every bundled scenario x seed,
of a 400-cell line road built from smoke.json, of smoke.json under six
--override sets, of a 40-cell road whose vehicles switch velocity class, of a
40-cell road whose ANs see noisy association vectors, and of a 500-vehicle
crowd on a 40-cell road.

These pins are the gate for refactors that must keep the trace: a change that
alters any of these bytes on purpose has to say so and re-pin them with the
reason. Regenerate a pin with `vecsim run <scenario> --seed <s>` and
`sha256sum packets.csv decisions.csv summary.json`.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import scenario_path
from vecsim.cli import main

FILES = ("packets.csv", "decisions.csv", "summary.json")

GOLDEN = {
    ("smoke", 0): (
        "e4ae334d8f86700e3adfe36da92c460ff078b7ffbb55e31ea288eec305cdb01c",
        "a4954f996b8234dfc7304841a2efab9859b08bd0ce0da76b9749566702f3975f",
        "19ca508bb4aa430a4c6e86e1f6d25980f38abeca77e21b62b2f322cebcaa2890",
    ),
    ("smoke", 1): (
        "e4ae334d8f86700e3adfe36da92c460ff078b7ffbb55e31ea288eec305cdb01c",
        "e7630594c335bd638d553b30fa0662e386b07cbe57d8459f8601902b8ff12133",
        "5dc1920c609b509f727b46d7716e510a879acd923fc43392d5971e3a7c3c0548",
    ),
    ("smoke", 2): (
        "e4ae334d8f86700e3adfe36da92c460ff078b7ffbb55e31ea288eec305cdb01c",
        "3d0c814635264be4d4090fae53a280b34a25396565b0a07246c3c504de6b51f8",
        "1ed0ad86561622626c05ac8529a54a3ef50d14fa8c00ae2288f8da88051cc696",
    ),
    ("degenerate", 0): (
        "141c82aefae87716e6bfc44417e186993e027b54b3f6b7f7630dcd5007e794bf",
        "379c3dbe53958755d96dff714cefea49cbd504df2b3f75692ab355dcf44e4781",
        "552d001dcb6164c130daa00ae0808a931f411bc2d5ac05a704c5a00dcbaa19b5",
    ),
    ("degenerate", 1): (
        "141c82aefae87716e6bfc44417e186993e027b54b3f6b7f7630dcd5007e794bf",
        "379c3dbe53958755d96dff714cefea49cbd504df2b3f75692ab355dcf44e4781",
        "1c2adb86c88717464930d25cbf396d7b149ccf2822612a800e1b2e104e48c80b",
    ),
    ("degenerate", 2): (
        "141c82aefae87716e6bfc44417e186993e027b54b3f6b7f7630dcd5007e794bf",
        "379c3dbe53958755d96dff714cefea49cbd504df2b3f75692ab355dcf44e4781",
        "fba64d1e186da39900e24582c98b87f91664cb8cfc03c02e3500e896c5042cfa",
    ),
    ("oracle", 0): (
        "141c82aefae87716e6bfc44417e186993e027b54b3f6b7f7630dcd5007e794bf",
        "379c3dbe53958755d96dff714cefea49cbd504df2b3f75692ab355dcf44e4781",
        "528d1ee9fe22abaa4489a15c08e222e3d3ceff35491058e86381ecfe59c75fce",
    ),
    ("oracle", 1): (
        "141c82aefae87716e6bfc44417e186993e027b54b3f6b7f7630dcd5007e794bf",
        "379c3dbe53958755d96dff714cefea49cbd504df2b3f75692ab355dcf44e4781",
        "f68af030148887cd42453be19f6da4fe876e1a53596fcee81227c3b9fc690f33",
    ),
    ("oracle", 2): (
        "141c82aefae87716e6bfc44417e186993e027b54b3f6b7f7630dcd5007e794bf",
        "379c3dbe53958755d96dff714cefea49cbd504df2b3f75692ab355dcf44e4781",
        "6d4531092da21a6ddbf8a8262d757bcccfdf28fab34b31ffce9e0bae21867234",
    ),
    ("eco_toy", 0): (
        "e4836dbaa11ec3210a0f2b5623e16e136d17370ff890471d71df49f3663d2776",
        "379c3dbe53958755d96dff714cefea49cbd504df2b3f75692ab355dcf44e4781",
        "f1a8a37d7b654476429e975ca1af1839676ff37ca374c1e49baa5cce642f721b",
    ),
    ("eco_toy", 1): (
        "e4836dbaa11ec3210a0f2b5623e16e136d17370ff890471d71df49f3663d2776",
        "379c3dbe53958755d96dff714cefea49cbd504df2b3f75692ab355dcf44e4781",
        "17238ed07fa8d3a094e14de782783d9b4a30ddbb7124d879e8f84d0a0cc07a47",
    ),
    ("eco_toy", 2): (
        "e4836dbaa11ec3210a0f2b5623e16e136d17370ff890471d71df49f3663d2776",
        "379c3dbe53958755d96dff714cefea49cbd504df2b3f75692ab355dcf44e4781",
        "fdb5bf49b9b66d692f63a1fd659d95940eb435aac2f712f51cb3e68e46a477d4",
    ),
}


@pytest.mark.parametrize(("name", "seed"), sorted(GOLDEN))
def test_bundled_scenario_outputs_match_their_pinned_digests(name, seed, tmp_path, capsys):
    code = main(["run", str(scenario_path(name)), "--seed", str(seed), "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    digests = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in FILES)
    assert digests == GOLDEN[(name, seed)]


# A 400-cell line road built from smoke.json: large enough that the belief
# filter's propagation over road cells is exercised, unlike the bundled
# scenarios' few dozen cells. A 1 m cell spacing keeps the road inside the
# coverage of smoke's three APs.
LONG_ROAD = {
    0: (
        "1a7ec2234e41d97aacc38ff89b5b1ee74e10ec999619e84a4cace3f33b8e99b1",
        "3b1fdbc76d5efb7454ddcd6701e22ba7acd1a6ba09568f258fe9a53e7f955cc9",
        "48f72c4a6499c97eddfddb647c30139d68bb46056d4d5070c908ac53dea56fcf",
    ),
    1: (
        "1a7ec2234e41d97aacc38ff89b5b1ee74e10ec999619e84a4cace3f33b8e99b1",
        "82416aff715f38dd2f61082fe59045e5dc0750abb40d35d122db6e703a41b098",
        "25c4905efba3f35a5a54c43046dbd223460724ee225c92e2aef45ef0f5a8555a",
    ),
}


@pytest.mark.parametrize("seed", sorted(LONG_ROAD))
def test_long_road_outputs_match_their_pinned_digests(seed, tmp_path, capsys):
    data = json.loads(scenario_path("smoke").read_text())
    data["road"] = {"builder": "line", "cells": 400, "spacing_m": 1.0, "forward_prob": 0.8}
    data["horizon"] = 300
    scenario = tmp_path / "long_road.json"
    scenario.write_text(json.dumps(data))
    out = tmp_path / "out"
    code = main(["run", str(scenario), "--seed", str(seed), "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    digests = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest() for f in FILES)
    assert digests == LONG_ROAD[seed]


# smoke.json through --override, for branches no bundled scenario takes:
# (a) bandit replica choice, unresolved collisions, cipher resyncs and
#     compromised sessions, and feedback re-placement of controllers;
# (b) no downlink attempt at all, so the delivery and power ratios are null;
# (c) and (d) the two fixed offloading policies, (d) with decode-and-forward;
# (e) two ANs of unit controller capacity, so every checkpoint opens two
#     controllers and the placement chooses each vehicle's domain;
# (f) twelve vehicles on three ANs of capacity 6 joined in a triangle, so
#     each checkpoint splits the fleet between two controllers and the
#     balancing chooses between the direct edge and the two-hop path.
OVERRIDE_SETS = {
    "a": (
        "horizon=400", "bandit.enabled=true", "mac.k_max=1", "cipher.an_view_flip_prob=0.3",
        "cipher.max_resync=2", "control.target_mean_latency_s=0.0005",
    ),
    "b": ("horizon=200", "snr_threshold_db=200", "downlink.policy=random", "predictor.policy=persistence"),
    "c": ("horizon=300", "edge_compute.offload_policy=greedy_local"),
    "d": ("horizon=300", "edge_compute.offload_policy=always_cloud", "mac.relay_mode=DF"),
    "e": ("horizon=300", 'ans=[{"an_id":0,"controller_capacity":1.0},{"an_id":1,"controller_capacity":1.0}]'),
    "f": (
        "horizon=200",
        "aps=" + json.dumps([{"ap_id": a, "x": 50.0 + 150.0 * a, "y": 10.0, "an_id": a} for a in range(3)]),
        "ans=" + json.dumps([{"an_id": a, "controller_capacity": 6.0} for a in range(3)]),
        "vehicles=" + json.dumps([{"vehicle_id": v, "cell": v % 5} for v in range(12)]),
        "control.edges=[[0,1,0.001,20],[1,2,0.001,20],[0,2,0.0025,20]]",
        "control.kappa=0.001",
        "control.period_slots=10",
    ),
}

OVERRIDDEN = {
    ("a", 0): (
        "ed49ee13c1223e507e9126f8165b0f68b872776c900a0c90cb38a3f32fb90d20",
        "582eb3c9f7e203f0c160575de8f943d47dbaa6c73b34aca4e27da114242d7041",
        "eacbb54544271618852c4b6745a2794ce9bba09572db4f9200985359873f6780",
    ),
    ("a", 1): (
        "a3fd4c56d0bccb9e677c20d7e96616d12755e27e05b5eb7b2af412aad91a0791",
        "4ff1aa483f085bd64ffdc42eec952ed12dce9026069a1b6759b678356d30db7d",
        "a17fac5939744f43629b6e2b1cb1e1b414599db78cbe5d7e3acb4c26f2d6bb3d",
    ),
    ("b", 0): (
        "3d1e1572b98450283020ed35ed10b712fa0181dc35fdc4808547f010d1d3033d",
        "6b0998c0b80870eb7d829fac161e6e08d5ce60d71aed99ef62c02c93fb23303a",
        "88123462206d91e3d3c2f1c11e2bdd7904dd70494f2e7523e58d3f5cf18811b7",
    ),
    ("b", 1): (
        "3d1e1572b98450283020ed35ed10b712fa0181dc35fdc4808547f010d1d3033d",
        "8831cd1811440f37713c9379a9ba2856db1f2f1de8e012ef006544c4c4a0d5bd",
        "fb07f52be3c8f7bc15647198966199da0235190002bc22c6fa25220783418233",
    ),
    ("c", 0): (
        "1a7ec2234e41d97aacc38ff89b5b1ee74e10ec999619e84a4cace3f33b8e99b1",
        "c2bf4dc197a57325c1d87f4de01f5bb9215848b3e33f4b5474900a0becaa55b4",
        "f4b621c392a4e164289d29cb33c981e4faff9f017caac070f86204fc075d4fbe",
    ),
    ("c", 1): (
        "1a7ec2234e41d97aacc38ff89b5b1ee74e10ec999619e84a4cace3f33b8e99b1",
        "0766284c9e859ee7274b4b00cbf9713ca7634230b1f3a660cb4f48516885c391",
        "f3c6b7672549f6da4315d3fb0123fbd4f168c045c1d387d32c67587c7d79ad51",
    ),
    ("d", 0): (
        "1a7ec2234e41d97aacc38ff89b5b1ee74e10ec999619e84a4cace3f33b8e99b1",
        "8e7e1221a8fe6e9ac132e297347f5e27bcc7bb3329ef96a1fdf45122d27288b1",
        "098b5befe7bff79d98fcd85becab77ceb0887ec9bdf754181297bee88e104cd5",
    ),
    ("d", 1): (
        "1a7ec2234e41d97aacc38ff89b5b1ee74e10ec999619e84a4cace3f33b8e99b1",
        "409c191dc2ac39507b5fd8d579ed9f3f06d3a98b0855b9a6667e7981e0e418eb",
        "0597dd8d8766ee8d93a15c9330fc668d8a11d3717d6827223e17c37899172cdd",
    ),
    ("e", 0): (
        "1a7ec2234e41d97aacc38ff89b5b1ee74e10ec999619e84a4cace3f33b8e99b1",
        "da059b0c481734cb9bddb6bceb62312548431060ca145f80357a6aed40dc0597",
        "b97e79181e3987ea2ffd77d35b052ad4a566e3ab249857e583043cf56573c5df",
    ),
    ("e", 1): (
        "1a7ec2234e41d97aacc38ff89b5b1ee74e10ec999619e84a4cace3f33b8e99b1",
        "18a7f1025a175bae58170b0abd3dd25a6d081df100ba063dfd9e2efe905ef30d",
        "fee019174e5a985c44a6278390505a549a5b7791cc9e167aa03d0789fd3139b2",
    ),
    ("f", 0): (
        "43877d122773c9879bc830b0847ac41d43fc9e0d112ad26a72c535b2c0cd543f",
        "ef76ba51500a3d864e87bcaf2574b921e28959e0fbcd5ef5afbdffcb979b1368",
        "c41bddc1153fb0cdc3e7d9864a38843d02d2624f3bf38ec613b83add8a2a954e",
    ),
    ("f", 1): (
        "5e01198810a2af57e21b088ceda1873c0f761e78078cfd23bde433d131fa5090",
        "d6900a4418ebf2c2cb85b3f4cc6ded5d1fd854c99b64cd30a331855aeec4fbb2",
        "f5f755455513d962136eb7178571e2b1630b377c75c70ac590653709245bec04",
    ),
}


@pytest.mark.parametrize(("overrides", "seed"), sorted(OVERRIDDEN))
def test_overridden_smoke_outputs_match_their_pinned_digests(overrides, seed, tmp_path, capsys):
    argv = ["run", str(scenario_path("smoke")), "--seed", str(seed), "--out", str(tmp_path)]
    for override in OVERRIDE_SETS[overrides]:
        argv += ["--override", override]
    code = main(argv)
    capsys.readouterr()
    assert code == 0
    digests = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in FILES)
    assert digests == OVERRIDDEN[(overrides, seed)]


def test_override_set_f_is_independent_of_string_hashing(tmp_path):
    # two-controller placements and balancing on every checkpoint; their
    # output must not follow the per-process string hash seed
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / hash_seed
        argv = ["run", str(scenario_path("smoke")), "--seed", "0", "--out", str(out)]
        for override in OVERRIDE_SETS["f"]:
            argv += ["--override", override]
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-m", "vecsim.cli", *argv], env=env, check=True, capture_output=True)
        outputs.append([(out / f).read_bytes() for f in FILES])
    assert outputs[0] == outputs[1]


# (g) sixty vehicles on a 40-cell line road with two velocity classes: every
# 3rd vehicle switches to "crawl" at slot 5 and every 6th back to "default" at
# slot 12, so the belief filter's update must re-propagate the posterior of a
# vehicle whose prior was propagated under the class it just left. At 50 m
# spacing most of the road lies beyond smoke's three APs, where the prior
# alone moves the belief, so reusing a stale prior changes the predictions.
def _velocity_switch_scenario(tmp_path: Path) -> Path:
    data = json.loads(scenario_path("smoke").read_text())
    cells = 40
    data["horizon"] = 30
    data["road"] = {"builder": "line", "cells": cells, "spacing_m": 50.0, "forward_prob": 0.8}
    data["mobility"] = {
        "rows": {
            vclass: {str(c): {str(c): 1.0 - forward, str((c + 1) % cells): forward} for c in range(cells)}
            for vclass, forward in (("default", 0.8), ("crawl", 0.1))
        }
    }
    data["vehicles"] = [{"vehicle_id": v, "cell": 7 * v % cells} for v in range(60)]
    data["velocity_schedule"] = [
        {"slot": 5, "vehicle_id": v, "velocity_class": "crawl"} for v in range(0, 60, 3)
    ] + [{"slot": 12, "vehicle_id": v, "velocity_class": "default"} for v in range(0, 60, 6)]
    data["ctu_pool"] = {"slots_per_frame": 1, "freq_blocks": 64, "sequences": 2}
    path = tmp_path / "velocity_switch.json"
    path.write_text(json.dumps(data))
    return path


VELOCITY_SWITCH = {
    0: (
        "bdcdd81afd40fa8efaa55f90766b974b1ea51a8d502f1f06f40eed232b3deff3",
        "7b2fd86b7eb57346b9d6293f45e705a6d3a5ccada2d42a8bebedd124b8e34cfd",
        "d8a1218f39fb4900447f4adea6176821c2fd5469a886b0c06a2f732010e981a7",
    ),
    1: (
        "f9781aa6a722fc06d24d75e83ef33f79ece71690c419789d43fee63504d7561e",
        "3ae50bb79119cd7411357dcb709a8f77e19848348ffd4270694c1f6bc830e4d3",
        "eb3fa9e380b766c20efcdc3220d4d81b333ceb975f91b5c19ebe36c66e35d815",
    ),
}


@pytest.mark.parametrize("seed", sorted(VELOCITY_SWITCH))
def test_velocity_switch_outputs_match_their_pinned_digests(seed, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", str(_velocity_switch_scenario(tmp_path)), "--seed", str(seed), "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    digests = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest() for f in FILES)
    assert digests == VELOCITY_SWITCH[seed]


# (h) forty vehicles on a 40-cell line road at 100 m spacing, under sixteen
# APs over four ANs in a chain, with noisy AN views (flip probability 0.05 per
# bit) and at most three resyncs per session. Vehicles cross an AN boundary
# every dozen slots or so, so in-sync cipher exchanges, resyncs, compromised
# sessions and fresh sessions after an AN handover interleave across the fleet.
def _noisy_view_scenario(tmp_path: Path) -> Path:
    data = json.loads(scenario_path("smoke").read_text())
    cells, n_aps, n_ans = 40, 16, 4
    data["horizon"] = 60
    data["road"] = {"builder": "line", "cells": cells, "spacing_m": 100.0, "forward_prob": 0.8}
    data["vehicles"] = [{"vehicle_id": v, "cell": 7 * v % cells} for v in range(40)]
    data["aps"] = [
        {"ap_id": a, "x": 250.0 * a + 125.0, "y": 10.0, "an_id": a * n_ans // n_aps, "fronthaul_snr_db": 30.0}
        for a in range(n_aps)
    ]
    data["ans"] = [
        {"an_id": a, "power_budget_w": 2.0, "controller_capacity": 100.0, "storage_capacity": 10.0}
        for a in range(n_ans)
    ]
    data["control"]["edges"] = [[a, a + 1, 0.001, 100.0] for a in range(n_ans - 1)]
    data["ctu_pool"] = {"slots_per_frame": 1, "freq_blocks": 64, "sequences": 2}
    data["cipher"].update(an_view_flip_prob=0.05, max_resync=3)
    path = tmp_path / "noisy_view.json"
    path.write_text(json.dumps(data))
    return path


NOISY_VIEW = {
    0: (
        "60a3410bc68caa06940e722e82b838b732811016d393b12c830cb4921f0e662d",
        "7cdce2e219f26c316950c2da53e35c2fb50fe3124790a504a2e8505a8e95149a",
        "06465320f58cb89358bd4c6f1c057957c681b70ad7e064b5dd8a9dba8119dd4c",
    ),
    1: (
        "f81420df35114de093e7f6ed07dba2da4a0f597e1e209bc02e558aefdf93db8f",
        "940b60d3dc16071c114bd306b30ecdcb2e24c0798cded21852cab7cbd508b038",
        "1f853365ad07e1e00d39037ef2829b4a19679db4c22163f42c1fbf194ff49000",
    ),
}


@pytest.mark.parametrize("seed", sorted(NOISY_VIEW))
def test_noisy_view_outputs_match_their_pinned_digests(seed, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", str(_noisy_view_scenario(tmp_path)), "--seed", str(seed), "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    digests = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest() for f in FILES)
    assert digests == NOISY_VIEW[seed]


# (i) the benchmark's crowd shape: five hundred vehicles on a 40-cell line
# road at 100 m spacing, under sixteen APs over four ANs in a chain, on a
# 256-CTU pool with a control checkpoint every 10 slots. Every cell holds a
# dozen vehicles, so each AN serves many clusters at once and most CTUs carry
# several contending packets: the uplink/relay/downlink hand-off at the scale
# no smaller pin reaches.
def _crowd_scenario(tmp_path: Path) -> Path:
    data = json.loads(scenario_path("smoke").read_text())
    vehicles, cells, n_aps, n_ans = 500, 40, 16, 4
    rate = data["control"]["rate_per_vehicle"]
    data["horizon"] = 20
    data["road"] = {"builder": "line", "cells": cells, "spacing_m": 100.0, "forward_prob": 0.8}
    data["vehicles"] = [{"vehicle_id": v, "cell": 7 * v % cells} for v in range(vehicles)]
    data["aps"] = [
        {"ap_id": a, "x": 250.0 * a + 125.0, "y": 10.0, "an_id": a * n_ans // n_aps, "fronthaul_snr_db": 30.0}
        for a in range(n_aps)
    ]
    data["ans"] = [
        {"an_id": a, "power_budget_w": 2.0, "controller_capacity": vehicles * rate, "storage_capacity": 10.0}
        for a in range(n_ans)
    ]
    data["ctu_pool"] = {"slots_per_frame": 1, "freq_blocks": 64, "sequences": 4}
    data["control"]["period_slots"] = 10
    data["control"]["edges"] = [[a, a + 1, 0.001, 4.0 * vehicles * rate] for a in range(n_ans - 1)]
    path = tmp_path / "crowd.json"
    path.write_text(json.dumps(data))
    return path


CROWD = {
    0: (
        "538dde8f2f24329818426845cdb57b206b763a185d1d37389e5096747003e49b",
        "3724ac4c865f460e554d4f6a16cf2843d3545efe47a31aa31930c05244190067",
        "d6709fcc103c65a6eb31a750ad95db4af838d071e9b1d437077882be1c688d94",
    ),
    1: (
        "a0db7e017c5c8a3bd611c8365d2a9f6b00aaf7455d05f7a6f8c164dd8e4aff2f",
        "18ed2a7eb1ebe5fa7311589304400879e7ec38c8f79d5a4fe02e607b905a1fa3",
        "ca5690a9bad19e8087b2993ab36085c5a3a68b82f40475a16238d66d380a1b86",
    ),
}


@pytest.mark.parametrize("seed", sorted(CROWD))
def test_crowd_outputs_match_their_pinned_digests(seed, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", str(_crowd_scenario(tmp_path)), "--seed", str(seed), "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    digests = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest() for f in FILES)
    assert digests == CROWD[seed]
