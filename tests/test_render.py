import json

import pytest

from farmpatrol.aco import AcoParams
from farmpatrol.energy import EnergyModel, Tour
from farmpatrol.fleet import plan_fleet
from farmpatrol.render import export_path, render_svg, verify_export
from farmpatrol.routegraph import build_graph
from farmpatrol.world import generate_waypoints, reference_farm

MODEL = EnergyModel()
FAST = AcoParams(n_ants=8, n_iterations=40, seed=3)


@pytest.fixture(scope="module")
def farm():
    return reference_farm()


@pytest.fixture(scope="module")
def waypoints(farm):
    return generate_waypoints(farm)


def test_map_only_render(farm, waypoints):
    svg = render_svg(farm, waypoints)
    assert svg.startswith("<svg ")
    assert svg.count('class="obstacle"') == 5
    assert svg.count('class="station"') == 2
    assert svg.count('class="waypoint"') == waypoints.n_valid
    assert svg.count('class="waypoint-invalid"') == len(waypoints.points) - waypoints.n_valid
    assert '<polyline' not in svg


def test_render_byte_identical(farm, waypoints):
    plan = plan_fleet(farm, waypoints, 2, "AS", MODEL, FAST)
    a = render_svg(farm, waypoints, plan)
    b = render_svg(farm, waypoints, plan)
    assert a == b


def test_dual_plan_distinct_colors(farm, waypoints):
    plan = plan_fleet(farm, waypoints, 2, "AS", MODEL, FAST)
    svg = render_svg(farm, waypoints, plan)
    assert svg.count('class="tour"') == 2
    assert 'stroke="#d62728"' in svg
    assert 'stroke="#2ca02c"' in svg
    assert "drone 0 (20 m)" in svg


def test_north_is_up(farm, waypoints):
    # the station sits at y=85 in a 175 m field: its svg y must be below
    # (numerically greater than) a northern waypoint's svg y
    svg = render_svg(farm, waypoints)
    # perimeter rect starts at the top-left corner (max y in world coords)
    assert 'class="perimeter"' in svg
    first_rect = svg.split('class="perimeter"')[1].split("/>")[0]
    y_attr = float(first_rect.split('y="')[1].split('"')[0])
    assert y_attr == pytest.approx(12.0)  # margin above the north edge


def test_export_path_round_trip(farm, waypoints):
    plan = plan_fleet(farm, waypoints, 1, "AS", MODEL, FAST)
    d = plan.drones[0]
    doc = export_path(d.tour, d.graph, d.altitude_m)
    assert doc["schema"] == 1
    assert doc["is_valid"]
    assert len(doc["waypoints"]) == len(d.tour.nodes)
    assert all(w["altitude_m"] == 20.0 for w in doc["waypoints"])
    # serialisable and cost-faithful
    text = json.dumps(doc)
    back = json.loads(text)
    recomputed = verify_export(back, MODEL.lambda_kj_per_m, MODEL.gamma_kj_per_deg)
    assert recomputed == pytest.approx(doc["cost_kj"], rel=1e-9)


def test_export_path_rejects_foreign_nodes(farm, waypoints):
    g = build_graph(farm, waypoints, 0)
    bogus = Tour((g.home, 99, g.home), 1.0, 0.0, 1.0, False)
    with pytest.raises(ValueError, match="99"):
        export_path(bogus, g, 20.0)
