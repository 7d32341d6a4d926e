"""BGP error taxonomy (RFC 4271 section 6).

Decode and protocol errors carry the (code, subcode) pair that a real
speaker would place in a NOTIFICATION message.  DiCE's crash checker
distinguishes these *expected* protocol errors from unexpected Python
exceptions: only the latter count as programming-error faults.
"""

from __future__ import annotations


class BGPError(Exception):
    """Base for protocol-level errors; maps onto NOTIFICATION codes."""

    code = 0
    subcode = 0

    def __init__(self, message: str = "", data: bytes = b""):
        super().__init__(message)
        self.data = data


class MessageHeaderError(BGPError):
    """NOTIFICATION code 1."""

    code = 1

    CONNECTION_NOT_SYNCHRONIZED = 1
    BAD_MESSAGE_LENGTH = 2
    BAD_MESSAGE_TYPE = 3

    def __init__(self, subcode: int, message: str = "", data: bytes = b""):
        super().__init__(message, data)
        self.subcode = subcode


class OpenMessageError(BGPError):
    """NOTIFICATION code 2."""

    code = 2

    UNSUPPORTED_VERSION = 1
    BAD_PEER_AS = 2
    BAD_BGP_IDENTIFIER = 3
    UNACCEPTABLE_HOLD_TIME = 6

    def __init__(self, subcode: int, message: str = "", data: bytes = b""):
        super().__init__(message, data)
        self.subcode = subcode


class UpdateMessageError(BGPError):
    """NOTIFICATION code 3."""

    code = 3

    MALFORMED_ATTRIBUTE_LIST = 1
    UNRECOGNIZED_WELLKNOWN_ATTRIBUTE = 2
    MISSING_WELLKNOWN_ATTRIBUTE = 3
    ATTRIBUTE_FLAGS_ERROR = 4
    ATTRIBUTE_LENGTH_ERROR = 5
    INVALID_ORIGIN = 6
    INVALID_NEXT_HOP = 8
    OPTIONAL_ATTRIBUTE_ERROR = 9
    INVALID_NETWORK_FIELD = 10
    MALFORMED_AS_PATH = 11

    def __init__(self, subcode: int, message: str = "", data: bytes = b""):
        super().__init__(message, data)
        self.subcode = subcode
