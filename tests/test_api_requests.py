"""MapRequest/MapResult surface + FTMapConfig JSON round-tripping."""

import json

import numpy as np
import pytest

from repro.api import FTMapService, MapRequest, receptor_fingerprint
from repro.api.errors import InvalidRequestError
from repro.mapping.ftmap import FTMapConfig
from repro.structure import build_probe, synthetic_protein


class TestConfigSerialization:
    def test_json_round_trip_defaults(self):
        cfg = FTMapConfig()
        wire = json.dumps(cfg.to_dict())
        assert FTMapConfig.from_dict(json.loads(wire)) == cfg

    def test_json_round_trip_custom(self):
        cfg = FTMapConfig(
            probe_names=("ethanol", "benzene"),
            num_rotations=12,
            receptor_grid=40,
            grid_spacing=1.0,
            minimize_top=4,
            minimizer_iterations=25,
            engine="batched-fft",
            batch_size=8,
            minimize_engine="batched",
            minimize_batch_size=4,
            minimize_devices=2,
            cache_policy="memory",
            cache_memory_bytes=1 << 20,
        )
        wire = json.dumps(cfg.to_dict())
        assert FTMapConfig.from_dict(json.loads(wire)) == cfg

    def test_to_dict_is_plain_data(self):
        data = FTMapConfig().to_dict()
        assert isinstance(data["probe_names"], list)
        # Every value must be JSON-native.
        json.dumps(data)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown FTMapConfig field"):
            FTMapConfig.from_dict({"num_rotations": 4, "warp_factor": 9})

    def test_from_dict_revalidates(self):
        with pytest.raises(ValueError, match="num_rotations"):
            FTMapConfig.from_dict({"num_rotations": 0})


def migrated_config(**overrides):
    """The small workload the 1.9.0 migration tests map."""
    base = dict(
        probe_names=("ethanol", "acetone"),
        num_rotations=4,
        receptor_grid=24,
        grid_spacing=1.25,
        minimize_top=2,
        minimizer_iterations=4,
        minimize_engine="serial",
        cache_policy="off",
    )
    base.update(overrides)
    return FTMapConfig(**base)


def config_doc_1_9():
    """A config document as 1.9.0 wrote it, retired names included."""
    doc = migrated_config().to_dict()
    doc.update(probe_workers=2, docking_workers=2, minimize_engine="multiprocess")
    return doc


class TestConfigMigration:
    """Documents written by 1.9.0 and 2.x still load; 1.9.0 configs map
    like ``serial``."""

    def test_retired_fields_and_backend_migrate(self):
        cfg = FTMapConfig.from_dict(json.loads(json.dumps(config_doc_1_9())))
        assert cfg == migrated_config()
        assert "probe_workers" not in cfg.to_dict()
        assert "docking_workers" not in cfg.to_dict()
        assert FTMapConfig.from_dict(cfg.to_dict()) == cfg

    def test_map_request_migrates_its_config(self):
        doc = {"receptor": "a" * 64, "config": config_doc_1_9()}
        request = MapRequest.from_dict(json.loads(json.dumps(doc)))
        assert request.config == migrated_config()
        assert MapRequest.from_dict(request.to_dict()) == request

    def test_migrated_config_maps_bitwise_like_serial(self):
        receptor = synthetic_protein(n_residues=30, seed=3)
        migrated = FTMapConfig.from_dict(config_doc_1_9())
        with FTMapService() as service:
            # probe_workers=2 selected process streaming in 1.9.0.
            old = service.map(receptor, migrated, streaming="process").result
            new = service.map(
                receptor, migrated_config(), streaming="sequential"
            ).result
        assert set(old.probe_results) == set(new.probe_results)
        for name, pr in new.probe_results.items():
            assert old.probe_results[name].minimize_backend == "serial"
            assert np.array_equal(
                old.probe_results[name].minimized_energies, pr.minimized_energies
            )
            assert np.array_equal(
                old.probe_results[name].minimized_centers, pr.minimized_centers
            )
        assert [s.to_dict() for s in old.sites] == [s.to_dict() for s in new.sites]

    def test_unknown_field_still_rejected(self):
        doc = config_doc_1_9()
        doc["warp_factor"] = 9
        with pytest.raises(ValueError, match="warp_factor"):
            FTMapConfig.from_dict(doc)
        with pytest.raises(InvalidRequestError, match="warp_factor"):
            MapRequest.from_dict({"receptor": "a" * 64, "config": doc})

    def test_retired_pipeline_streaming(self):
        """2.x's thread ``"pipeline"`` mode loads as the service default
        from documents, and is rejected when constructed by name."""
        doc = {"receptor": "a" * 64, "streaming": "pipeline"}
        request = MapRequest.from_dict(json.loads(json.dumps(doc)))
        assert request.streaming is None
        assert MapRequest.from_dict(request.to_dict()) == request
        with pytest.raises(InvalidRequestError, match="pipeline"):
            MapRequest(receptor="a" * 64, streaming="pipeline")
        with pytest.raises(InvalidRequestError, match="pipeline"):
            FTMapService(streaming="pipeline")

    def test_constructor_rejects_retired_names(self):
        with pytest.raises(TypeError, match="probe_workers"):
            FTMapConfig(probe_workers=2)
        with pytest.raises(TypeError, match="docking_workers"):
            FTMapConfig(docking_workers=2)
        with pytest.raises(ValueError, match="multiprocess"):
            FTMapConfig(minimize_engine="multiprocess")


class TestMapRequest:
    def test_round_trip_by_fingerprint(self):
        receptor = synthetic_protein(n_residues=10, seed=1)
        request = MapRequest(
            receptor=receptor_fingerprint(receptor),
            config=FTMapConfig(probe_names=("ethanol",), num_rotations=4),
            request_id="req-7",
            streaming="process",
        )
        wire = json.dumps(request.to_dict())
        back = MapRequest.from_dict(json.loads(wire))
        assert back == request

    def test_inline_molecule_does_not_serialize(self):
        receptor = synthetic_protein(n_residues=10, seed=1)
        with pytest.raises(ValueError, match="register_receptor"):
            MapRequest(receptor=receptor).to_dict()

    def test_prebuilt_probes_do_not_serialize(self):
        request = MapRequest(
            receptor="a" * 64, probes={"ethanol": build_probe("ethanol")}
        )
        with pytest.raises(ValueError, match="probe"):
            request.to_dict()

    def test_streaming_mode_validated(self):
        with pytest.raises(ValueError, match="streaming"):
            MapRequest(receptor="a" * 64, streaming="warp")

    def test_receptor_type_validated(self):
        # A wrong-typed receptor is a typed 400 like every other request
        # validation failure (InvalidRequestError subclasses ValueError).
        with pytest.raises(InvalidRequestError, match="receptor"):
            MapRequest(receptor=42)

    def test_from_dict_requires_receptor(self):
        with pytest.raises(ValueError, match="receptor"):
            MapRequest.from_dict({"config": FTMapConfig().to_dict()})

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown MapRequest field"):
            MapRequest.from_dict({"receptor": "a" * 64, "shard": 3})

    def test_fingerprint_is_structural(self):
        a = synthetic_protein(n_residues=10, seed=1)
        b = synthetic_protein(n_residues=10, seed=1)
        c = synthetic_protein(n_residues=10, seed=2)
        assert receptor_fingerprint(a) == receptor_fingerprint(b)
        assert receptor_fingerprint(a) != receptor_fingerprint(c)


class TestWireSchema:
    """schema_version stamping and validation on the wire documents."""

    def test_request_to_dict_is_stamped(self):
        from repro.api.schema import SCHEMA_VERSION

        doc = MapRequest(receptor="a" * 64).to_dict()
        assert doc["schema_version"] == SCHEMA_VERSION
        assert json.loads(json.dumps(doc)) == doc

    def test_round_trip_through_wire_dialect(self):
        request = MapRequest(
            receptor="a" * 64,
            config=FTMapConfig(probe_names=("ethanol",)),
            request_id="rt-1",
        )
        rebuilt = MapRequest.from_dict(json.loads(json.dumps(request.to_dict())))
        assert rebuilt == request

    def test_pre_versioning_documents_still_parse(self):
        """A v1 document without the field is the legacy dialect."""
        doc = MapRequest(receptor="a" * 64).to_dict()
        doc.pop("schema_version")
        assert MapRequest.from_dict(doc).receptor == "a" * 64

    def test_future_version_rejected_with_typed_error(self):
        from repro.api.errors import SchemaVersionError

        doc = MapRequest(receptor="a" * 64).to_dict()
        doc["schema_version"] = 99
        with pytest.raises(SchemaVersionError, match="schema_version 99"):
            MapRequest.from_dict(doc)
        # ...and the typed error still reads as the legacy ValueError.
        with pytest.raises(ValueError):
            MapRequest.from_dict(doc)

    def test_invalid_config_becomes_invalid_request(self):
        from repro.api.errors import InvalidRequestError

        doc = MapRequest(receptor="a" * 64).to_dict()
        doc["config"]["num_rotations"] = -5
        with pytest.raises(InvalidRequestError, match="config"):
            MapRequest.from_dict(doc)

    @pytest.mark.parametrize("field", ["engine", "minimize_engine"])
    def test_gpu_sim_engine_is_invalid_request(self, field):
        """``gpu-sim`` left both facades in 6.0.0; a document naming it
        gets the unknown-backend error, with no migration."""
        doc = MapRequest(receptor="a" * 64).to_dict()
        doc["config"][field] = "gpu-sim"
        with pytest.raises(InvalidRequestError, match="unknown .*engine 'gpu-sim'"):
            MapRequest.from_dict(doc)

    def test_progress_event_round_trip(self):
        from repro.api.jobs import ProgressEvent

        event = ProgressEvent("j1", "dock", "ethanol", 0, 3)
        doc = json.loads(json.dumps(event.to_dict()))
        assert ProgressEvent.from_dict(doc) == event

    def test_map_result_wire_document(self):
        from repro.api import FTMapService
        from repro.api.schema import SCHEMA_VERSION

        protein = synthetic_protein(n_residues=20, seed=7)
        cfg = FTMapConfig(
            probe_names=("ethanol",),
            num_rotations=4,
            receptor_grid=24,
            minimize_top=1,
            minimizer_iterations=2,
            engine="fft",
        )
        with FTMapService() as service:
            result = service.map(protein, config=cfg)
        doc = result.to_dict()
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["receptor_hash"] == result.receptor_hash
        wire = json.loads(json.dumps(doc))
        # Floats survive JSON bitwise: shortest-repr round-trip.
        assert wire == doc
        probe = wire["result"]["probes"]["ethanol"]
        assert probe["minimized_energies"] == [
            float(e)
            for e in result.result.probe_results["ethanol"].minimized_energies
        ]
