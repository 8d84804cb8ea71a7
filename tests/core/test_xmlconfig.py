"""Tests for mr_jobtracker.xml parsing and serialisation."""

import pytest

from repro.core import BoincMRConfig, MapReduceJobSpec
from repro.core.xmlconfig import (
    ConfigError,
    dump_jobtracker_xml,
    load_jobtracker_xml,
)

SAMPLE = """
<mr_jobtracker>
  <config>
    <reduce_from_peers>1</reduce_from_peers>
    <upload_map_outputs>0</upload_map_outputs>
    <serve_timeout>7200</serve_timeout>
    <peer_retries>5</peer_retries>
  </config>
  <job>
    <name>wordcount</name>
    <n_maps>20</n_maps>
    <n_reducers>5</n_reducers>
    <input_size>1e9</input_size>
  </job>
  <job>
    <name>grep</name>
    <n_maps>10</n_maps>
    <n_reducers>2</n_reducers>
    <replication>3</replication>
    <quorum>2</quorum>
    <app_name>grep</app_name>
  </job>
</mr_jobtracker>
"""


class TestLoad:
    def test_parses_config(self):
        config, _jobs = load_jobtracker_xml(SAMPLE)
        assert config.reduce_from_peers is True
        assert config.upload_map_outputs is False
        assert config.serve_timeout_s == 7200.0
        assert config.peer_retries == 5

    def test_parses_jobs(self):
        _config, jobs = load_jobtracker_xml(SAMPLE)
        assert [j.name for j in jobs] == ["wordcount", "grep"]
        wc = jobs[0]
        assert (wc.n_maps, wc.n_reducers) == (20, 5)
        assert wc.input_size == 1e9
        assert wc.replication == 2  # default
        assert jobs[1].replication == 3

    def test_missing_config_uses_defaults(self):
        config, jobs = load_jobtracker_xml(
            "<mr_jobtracker><job><name>x</name><n_maps>1</n_maps>"
            "<n_reducers>1</n_reducers></job></mr_jobtracker>")
        assert config == BoincMRConfig()
        assert len(jobs) == 1

    def test_loads_from_file(self, tmp_path):
        path = tmp_path / "mr_jobtracker.xml"
        path.write_text(SAMPLE)
        config, jobs = load_jobtracker_xml(path)
        assert len(jobs) == 2

    def test_wrong_root_rejected(self):
        with pytest.raises(ConfigError, match="root"):
            load_jobtracker_xml("<boinc></boinc>")

    def test_invalid_xml_rejected(self):
        with pytest.raises(ConfigError, match="invalid XML"):
            load_jobtracker_xml("<mr_jobtracker>")

    def test_missing_required_job_field(self):
        with pytest.raises(ConfigError, match="n_maps"):
            load_jobtracker_xml(
                "<mr_jobtracker><job><name>x</name>"
                "<n_reducers>1</n_reducers></job></mr_jobtracker>")

    def test_bad_boolean_rejected(self):
        with pytest.raises(ConfigError, match="boolean"):
            load_jobtracker_xml(
                "<mr_jobtracker><config>"
                "<reduce_from_peers>maybe</reduce_from_peers>"
                "</config></mr_jobtracker>")

    def test_semantic_validation_propagates(self):
        with pytest.raises(ConfigError):
            load_jobtracker_xml(
                "<mr_jobtracker><job><name>x</name><n_maps>0</n_maps>"
                "<n_reducers>1</n_reducers></job></mr_jobtracker>")


class TestRoundTrip:
    def test_dump_and_load(self):
        config = BoincMRConfig(upload_map_outputs=True, peer_retries=7,
                               serve_timeout_s=1234.0)
        jobs = [MapReduceJobSpec("wc", n_maps=4, n_reducers=2,
                                 input_size=5e7, replication=3, quorum=2)]
        text = dump_jobtracker_xml(config, jobs)
        config2, jobs2 = load_jobtracker_xml(text)
        assert config2.upload_map_outputs == config.upload_map_outputs
        assert config2.peer_retries == config.peer_retries
        assert config2.serve_timeout_s == config.serve_timeout_s
        assert jobs2[0] == jobs[0]

    def test_parsed_spec_drives_a_real_run(self):
        from repro.core import CloudSpec, VolunteerCloud

        xml = """
        <mr_jobtracker>
          <config><upload_map_outputs>1</upload_map_outputs></config>
          <job>
            <name>fromxml</name>
            <n_maps>4</n_maps>
            <n_reducers>2</n_reducers>
            <input_size>4e7</input_size>
          </job>
        </mr_jobtracker>
        """
        config, jobs = load_jobtracker_xml(xml)
        cloud = VolunteerCloud.from_spec(CloudSpec(seed=1, mr_config=config))
        cloud.add_volunteers(6, mr=True)
        job = cloud.run_job(jobs[0], timeout=24 * 3600)
        assert job.finished
