"""Exception hierarchy shared across the runtime."""


class EngineError(Exception):
    """Base class for all engine-level failures."""


class EngineCreationError(EngineError):
    """Engine could not be created (bad topology, spawn failure, a team that never got ready)."""


class GoalError(EngineError):
    """A goal was rejected or aborted (bad syntax, unknown program, runtime fault)."""


class ProtocolViolation(EngineError):
    """A wire frame or payload failed validation; the engine cannot continue."""


class EngineShutdown(Exception):
    """Internal control-flow signal: the engine is being torn down."""
