"""qlock: key-based quantum circuit locking and recovery.

Locks a circuit by converting selected gates into ancilla-controlled key
sections and re-encoding phase-gate angles behind 3-bit keys, restores it
with the correct key, and quantifies obfuscation strength via total variation
distance under sampled input states.
"""

from .circuit import (
    Barrier,
    Circuit,
    Gate,
    Layer,
    LayeredCircuit,
    LightConeRank,
    Measure,
    flatten,
    layerize,
    light_cone_rank,
    metrics,
)
from .evaluation import (
    EvalConfig,
    TvdReport,
    equivalent_up_to_global_phase,
    evaluate,
    random_input_layer,
    tvd,
)
from .locking import (
    Key,
    KeyEntry,
    ObfuscationPlan,
    ObfuscationRecord,
    PlanError,
    Site,
    dense_plan,
    export_key,
    import_key,
    normalize_phase_angle,
    obfuscate,
    select_sites,
)
from .qasm import QasmError, emit_circuit, parse_circuit
from .simulator import Distribution, NoiseConfig, run, statevector, unitary_of
from .unlocking import UnlockResult, apply_phase_key, insert_key_toggles, simplify, unlock

__version__ = "0.1.0"

__all__ = [
    "Barrier",
    "Circuit",
    "Distribution",
    "EvalConfig",
    "Gate",
    "Key",
    "KeyEntry",
    "Layer",
    "LayeredCircuit",
    "LightConeRank",
    "Measure",
    "NoiseConfig",
    "ObfuscationPlan",
    "ObfuscationRecord",
    "PlanError",
    "QasmError",
    "Site",
    "TvdReport",
    "UnlockResult",
    "apply_phase_key",
    "dense_plan",
    "emit_circuit",
    "equivalent_up_to_global_phase",
    "evaluate",
    "export_key",
    "flatten",
    "import_key",
    "insert_key_toggles",
    "layerize",
    "light_cone_rank",
    "metrics",
    "normalize_phase_angle",
    "obfuscate",
    "parse_circuit",
    "random_input_layer",
    "run",
    "select_sites",
    "simplify",
    "statevector",
    "tvd",
    "unitary_of",
    "unlock",
]
