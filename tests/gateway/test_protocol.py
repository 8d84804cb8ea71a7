"""Wire protocol unit tests: schemas, checksums, error codes."""

import pytest

from repro.gateway import protocol


class TestChecksum:
    def test_format(self):
        assert protocol.checksum(b"hello") .startswith("crc32:")
        assert len(protocol.checksum(b"hello")) == len("crc32:") + 8

    def test_deterministic(self):
        assert protocol.checksum(b"abc") == protocol.checksum(b"abc")
        assert protocol.checksum(b"abc") != protocol.checksum(b"abd")

    def test_empty(self):
        assert protocol.checksum(b"") == "crc32:00000000"


class TestSchemas:
    def test_every_endpoint_schema_exists(self):
        for ep in protocol.ENDPOINTS:
            for schema in (ep.request_schema, ep.reply_schema):
                if schema is not None:
                    assert schema in protocol.SCHEMAS, ep.path

    def test_valid_work_request(self):
        payload = {"host_id": 1, "work_req_s": 1.0, "reports": [
            {"result_id": 3, "success": True, "elapsed_s": 0.5,
             "digest": "crc32:deadbeef",
             "output_files": [{"name": "j.m0.p0", "size": 10}]}]}
        assert protocol.validate("WorkRequest", payload) == []

    def test_missing_required_field(self):
        problems = protocol.validate("WorkRequest", {"host_id": 1})
        assert any("work_req_s" in p and "missing" in p for p in problems)

    def test_unknown_field_rejected(self):
        problems = protocol.validate("RegisterRequest", {
            "name": "x", "flops": 1.0, "bogus": 1})
        assert any("bogus" in p for p in problems)

    def test_type_mismatch_reported_with_path(self):
        problems = protocol.validate("WorkRequest", {
            "host_id": "one", "work_req_s": 1.0})
        assert any("host_id" in p for p in problems)

    def test_nested_list_items_validated(self):
        payload = {"host_id": 1, "work_req_s": 1.0,
                   "reports": [{"result_id": "nope"}]}
        problems = protocol.validate("WorkRequest", payload)
        assert any("result_id" in p for p in problems)
        assert any("success" in p and "missing" in p for p in problems)

    def test_bool_is_not_int(self):
        problems = protocol.validate("RegisterReply", {
            "host_id": True, "request_delay_s": 0.0})
        assert any("host_id" in p for p in problems)

    def test_nullable_kinds(self):
        task = {"result_id": 1, "wu_id": 1, "app": "wordcount",
                "job": None, "kind": None, "index": None,
                "input_files": [], "est_runtime_s": 1.0, "deadline": 2.0}
        assert protocol.validate("Task", task) == []

    def test_non_object_payload(self):
        assert protocol.validate("RegisterRequest", [1, 2]) != []


class TestErrors:
    def test_error_body_roundtrip(self):
        status, body = protocol.error_body("not_found", "gone")
        assert status == 404
        doc = protocol.loads(body)
        assert protocol.validate("Error", doc) == []
        assert doc["error"] == "not_found"

    def test_retry_after_included(self):
        status, body = protocol.error_body("unavailable", "down",
                                           retry_after_s=1.5)
        assert status == 503
        assert protocol.loads(body)["retry_after_s"] == 1.5

    def test_all_codes_have_valid_statuses(self):
        for code, (status, meaning) in protocol.ERROR_CODES.items():
            assert 400 <= status < 600, code
            assert meaning

    def test_unknown_code_raises(self):
        with pytest.raises(KeyError):
            protocol.error_body("nope", "x")


class TestDumps:
    def test_canonical(self):
        assert protocol.dumps({"b": 1, "a": 2}) == b'{"a":2,"b":1}'

    def test_roundtrip(self):
        doc = {"x": [1, 2, {"y": None}]}
        assert protocol.loads(protocol.dumps(doc)) == doc


class TestLoads:
    @pytest.mark.parametrize("text", ["NaN", "[Infinity]", '{"a":-Infinity}',
                                      "1e400", "[-1e400]"])
    def test_non_finite_numbers_are_refused(self, text):
        # json.loads takes every one of these; RFC 8259 has no such number.
        with pytest.raises(ValueError, match="is not a finite number"):
            protocol.loads(text.encode())

    def test_nesting_past_the_recursion_limit_is_refused(self):
        # json.loads raises RecursionError, which no ValueError handler takes.
        with pytest.raises(ValueError, match="nested too deeply"):
            protocol.loads(b"[" * 100000 + b"]" * 100000)

    @pytest.mark.parametrize("data", [
        b'{"a":[1,-0.0,1e308,2.5e-324,"\\u00e9"],"b":null}', b"10" * 200,
        b"", b"{", b"\xef\xbb\xbf{}", b"[1,]", b'"\xff"'])
    def test_everything_else_as_json_loads(self, data):
        import json

        try:
            expected = json.loads(data.decode("utf-8"))
        except ValueError as exc:
            with pytest.raises(type(exc)) as err:
                protocol.loads(data)
            assert str(err.value) == str(exc)
        else:
            assert protocol.loads(data) == expected
