"""Tests for the D-PC2 probing campaign."""

from repro.world.calibration import PROBED_C2_COUNT


class TestDiscovery:
    def test_all_planted_c2s_discovered(self, mid_study):
        world, _malnet, campaign, _ds = mid_study
        planted = {(d.address, d.port) for d in world.truth.probed_deployments}
        assert campaign.discovered == planted
        assert len(campaign.discovered) == PROBED_C2_COUNT

    def test_decoys_not_discovered(self, mid_study):
        world, _malnet, campaign, _ds = mid_study
        decoys = {h.address for h in world.network.hosts.values()
                  if h.name == "decoy-web"}
        assert not {addr for addr, _p in campaign.discovered} & decoys

    def test_observations_merged_into_datasets(self, mid_study):
        _w, _malnet, campaign, datasets = mid_study
        assert datasets.d_pc2 == campaign.observations
        assert datasets.probed_c2_count() == PROBED_C2_COUNT


class TestResponseMatrix:
    def test_matrix_shape(self, mid_study):
        _w, _m, campaign, _ds = mid_study
        matrix = campaign.response_matrix()
        assert len(matrix) == PROBED_C2_COUNT
        for series in matrix.values():
            assert len(series) == campaign.total_slots

    def test_responses_are_spotty(self, mid_study):
        """No server answers everything; every server answers something."""
        _w, _m, campaign, _ds = mid_study
        for series in campaign.response_matrix().values():
            assert any(series)
            assert not all(series)

    def test_no_full_response_day(self, mid_study):
        """Paper: servers never respond to all six probes in one day."""
        _w, _m, campaign, _ds = mid_study
        assert not campaign.any_full_day_response()

    def test_repeat_rate_near_nine_percent(self, mid_study):
        """Paper: 91% of the time no second response 4 hours later."""
        _w, _m, campaign, _ds = mid_study
        rate = campaign.repeat_response_rate()
        assert 0.0 <= rate < 0.25

    def test_observation_slots_increasing(self, mid_study):
        _w, _m, campaign, _ds = mid_study
        per_c2: dict = {}
        for obs in campaign.observations:
            key = (obs.c2_address, obs.c2_port)
            slots = per_c2.setdefault(key, [])
            if slots:
                assert obs.slot >= slots[-1]
            slots.append(obs.slot)

    def test_six_probes_per_day(self, mid_study):
        _w, _m, campaign, _ds = mid_study
        assert campaign.slots_per_day == 6
        assert campaign.total_slots == campaign.days * 6

    def test_repeat_rate_zero_when_no_data(self, smoke_world):
        from repro.core.probing import ProbingCampaign

        campaign = ProbingCampaign(
            network=smoke_world.network, engine=None, sandbox=None,
            subnets=[], sample_binaries=[], start=0.0, days=0,
        )
        assert campaign.repeat_response_rate() == 0.0


class TestProbeBinaries:
    def test_picks_activate_at_the_runs_rate(self, smoke_world):
        """The weaponized samples are picked with the run's own emulator:
        at half the default activation rate both picks still activate in
        the run's sandbox, and the campaign finds every probed C2."""
        from repro.core.pipeline import MalNet, PipelineConfig
        from repro.core.study import run_probing, select_probe_binaries

        malnet = MalNet(smoke_world, PipelineConfig(activation_rate=0.5))
        sandbox = malnet.sandbox
        picks = select_probe_binaries(smoke_world, sandbox.emulator)
        assert len(picks) == 2
        for data in picks:
            sandbox.emulator.run(data, sandbox.bot_ip)  # raises on evasion
        campaign = run_probing(smoke_world, malnet)
        assert len(campaign.discovered) == \
            len(smoke_world.truth.probed_deployments)
