"""Exception hierarchy and receipt error codes."""

from __future__ import annotations


class VeriledgerError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(VeriledgerError):
    """Scenario or command configuration is invalid (CLI exit code 2)."""


class LedgerError(VeriledgerError):
    """Structural chain error; aborts the whole block."""


class BadParent(LedgerError):
    pass


class BadHeight(LedgerError):
    pass


class WrongProposer(LedgerError):
    pass


class StateRootMismatch(LedgerError):
    pass


class BadBlockHash(LedgerError):
    """The block hash is not the digest of the block's other fields."""


class UnencodableState(LedgerError):
    """A block left a value the state encoding cannot hold (a u64 overflow)."""


class EmptyValidatorSet(LedgerError):
    pass


class StoreError(VeriledgerError):
    """Chain file cannot be written or read back consistently."""


class HeightGap(StoreError):
    pass


class CorruptRecord(StoreError):
    """The chain file's record of ``height`` cannot be read."""

    def __init__(self, height: int, reason: str):
        super().__init__(reason)
        self.height = height


class SerializationError(StoreError):
    pass


class DetectionError(VeriledgerError):
    pass


class EmptyContent(DetectionError):
    pass


class MalformedImage(DetectionError):
    pass


class MalformedAudio(DetectionError):
    pass


class DimensionMismatch(DetectionError):
    pass


class ZeroVector(DetectionError):
    pass


class UnknownDetector(DetectionError):
    pass


class NoEligibleAlgorithm(DetectionError):
    pass


class EmbeddingUnavailable(DetectionError):
    """The oracle holds no embedding for a request, or none that hashes to
    the request's ``embedding_hash``."""


class MissingLabel(VeriledgerError):
    """A committed request has no ground-truth label."""


class Rejection(VeriledgerError):
    """Raised inside contract execution; becomes a rejected receipt.

    ``code`` is the machine-readable error code recorded on the receipt.
    A rejected transaction must leave state untouched, so contract
    operations validate every precondition before their first mutation.
    """

    def __init__(self, code: str, detail: str = ""):
        super().__init__(f"{code}: {detail}" if detail else code)
        self.code = code
        self.detail = detail


# Receipt error codes. Kept as plain strings so receipts serialize directly.
BAD_NONCE = "BadNonce"
UNKNOWN_KIND = "UnknownKind"
DUPLICATE_ALGORITHM = "DuplicateAlgorithm"
INSUFFICIENT_STAKE = "InsufficientStake"
INSUFFICIENT_BALANCE = "InsufficientBalance"
UNKNOWN_DETECTOR = "UnknownDetector"
NOT_PENDING = "NotPending"
DUPLICATE_CHALLENGE = "DuplicateChallenge"
UNKNOWN_CHALLENGE = "UnknownChallenge"
UNKNOWN_ALGORITHM = "UnknownAlgorithm"
DUPLICATE_CONTENT = "DuplicateContent"
BAD_EMBEDDING_DIMENSION = "BadEmbeddingDimension"
BAD_EMBEDDING_VALUES = "BadEmbeddingValues"
INSUFFICIENT_FEE = "InsufficientFee"
DUPLICATE_REQUEST = "DuplicateRequest"
UNKNOWN_REQUEST = "UnknownRequest"
REQUEST_COMPLETED = "RequestCompleted"
REQUEST_NOT_COMPLETED = "RequestNotCompleted"
ALGORITHM_NOT_ACTIVE = "AlgorithmNotActive"
UNAUTHORIZED_ORACLE = "UnauthorizedOracle"
BAD_RESULT = "BadResult"
DUPLICATE_FEEDBACK = "DuplicateFeedback"
NOT_SUBMITTER = "NotSubmitter"
BAD_LABEL = "BadLabel"
BAD_AMOUNT = "BadAmount"
