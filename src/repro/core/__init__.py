"""MEALib core: TDL, descriptors, configuration unit, runtime, system."""

from repro.core.config_unit import (CompInstance, ConfigurationUnit,
                                    Degradation, DescriptorExecution,
                                    PassPlan)
from repro.core.descriptor import (CMD_IDLE, CMD_START, DescriptorError,
                                   DescriptorIntegrityError,
                                   EncodedDescriptor, Instruction,
                                   KIND_ACCEL, KIND_ENDLOOP, KIND_ENDPASS,
                                   KIND_LOOP, OPCODES, decode_control,
                                   decode_instructions,
                                   descriptor_checksum, encode,
                                   set_command, verify_integrity)
from repro.core.invocation import InvocationModel
from repro.core.runtime import (AccPlan, Ledger, LedgerEntry,
                                MealibRuntime, MealibRuntimeError,
                                ResilienceCounters, ResiliencePolicy)
from repro.core.schedule_cache import (ScheduleCache, ScheduleCacheStats,
                                       ScheduleEntry)
from repro.core.system import MealibSystem
from repro.core.tdl import (Comp, Loop, ParamStore, Pass, TdlError,
                            TdlProgram, format_tdl, parse_tdl)

__all__ = [
    "CompInstance", "ConfigurationUnit", "Degradation",
    "DescriptorExecution", "PassPlan",
    "CMD_IDLE", "CMD_START", "DescriptorError", "DescriptorIntegrityError",
    "EncodedDescriptor", "Instruction", "KIND_ACCEL", "KIND_ENDLOOP",
    "KIND_ENDPASS", "KIND_LOOP", "OPCODES", "decode_control",
    "decode_instructions", "descriptor_checksum", "encode", "set_command",
    "verify_integrity", "InvocationModel", "AccPlan", "Ledger",
    "LedgerEntry", "MealibRuntime", "MealibRuntimeError",
    "ResilienceCounters", "ResiliencePolicy",
    "ScheduleCache", "ScheduleCacheStats", "ScheduleEntry",
    "MealibSystem", "Comp", "Loop", "ParamStore", "Pass", "TdlError",
    "TdlProgram", "format_tdl", "parse_tdl",
]
