"""Out-of-band path: BMC queries over IPMB.

"The second is the 'out-of-band' method which starts with the same
capabilities in the coprocessors, but sends the information to the Xeon
Phi's System Management Controller (SMC).  The SMC can then respond to
queries from the platform's Baseboard Management Controller (BMC) using
the intelligent platform management bus (IPMB) protocol to pass the
information upstream to the user."  (paper §II-D)

IPMB framing follows the IPMI spec: rsSA, netFn/rsLUN, a header
checksum, rqSA, rqSeq/rqLUN, cmd, data, and a trailing checksum — both
checksums are two's-complement sums verified on receive.  The virtue of
this path is that it costs the host and card *nothing* (the BMC and SMC
are independent microcontrollers); its vice is latency and coarseness.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ChecksumError, IpmbError
from repro.mech.channel import MILLI_UNITS
from repro.obs.instruments import collector
from repro.sim.clock import VirtualClock
from repro.xeonphi.smc import SMC_SENSORS, SystemManagementController

_OBS = collector("ipmb")

#: One IPMB request/response exchange (100 kHz bus + SMC firmware).
IPMB_EXCHANGE_LATENCY_S = 22e-3

#: IPMI network function for sensor/event requests.
NETFN_SENSOR_REQUEST = 0x04
NETFN_SENSOR_RESPONSE = 0x05
#: OEM command we use for "read named sensor".
CMD_GET_SENSOR_READING = 0x2D

#: Sensor number assignment on the SMC (index into SMC_SENSORS).
SENSOR_NUMBERS = {name: i for i, name in enumerate(SMC_SENSORS)}


def _checksum(data: bytes) -> int:
    """Two's-complement checksum: sum(data + checksum) % 256 == 0."""
    return (-sum(data)) & 0xFF


@dataclass(frozen=True)
class IpmbMessage:
    """A framed IPMB message."""

    rs_addr: int
    net_fn: int
    rq_addr: int
    rq_seq: int
    cmd: int
    data: bytes

    def to_bytes(self) -> bytes:
        """Serialize with both checksums."""
        header = bytes([self.rs_addr, (self.net_fn << 2) & 0xFF])
        body = bytes([self.rq_addr, (self.rq_seq << 2) & 0xFF, self.cmd]) + self.data
        return header + bytes([_checksum(header)]) + body + bytes([_checksum(body)])

    @classmethod
    def from_bytes(cls, raw: bytes) -> "IpmbMessage":
        """Parse and verify both checksums."""
        if len(raw) < 7:
            raise IpmbError(f"IPMB frame too short: {len(raw)} bytes")
        header, header_ck = raw[:2], raw[2]
        if _checksum(header) != header_ck:
            raise ChecksumError("IPMB header checksum mismatch")
        body, body_ck = raw[3:-1], raw[-1]
        if _checksum(body) != body_ck:
            raise ChecksumError("IPMB body checksum mismatch")
        return cls(
            rs_addr=header[0],
            net_fn=header[1] >> 2,
            rq_addr=body[0],
            rq_seq=body[1] >> 2,
            cmd=body[2],
            data=bytes(body[3:]),
        )


class SmcIpmbResponder:
    """The SMC's IPMB slave interface."""

    #: IPMB slave address of a Xeon Phi SMC.
    ADDRESS = 0x30

    def __init__(self, smc: SystemManagementController, clock: VirtualClock):
        self.smc = smc
        self.clock = clock

    def handle(self, request: IpmbMessage) -> IpmbMessage:
        """Answer a sensor-reading request."""
        if request.rs_addr != self.ADDRESS:
            raise IpmbError(f"request addressed to 0x{request.rs_addr:02x}, not SMC")
        if request.net_fn != NETFN_SENSOR_REQUEST or request.cmd != CMD_GET_SENSOR_READING:
            raise IpmbError(
                f"unsupported netFn/cmd 0x{request.net_fn:02x}/0x{request.cmd:02x}"
            )
        if len(request.data) != 1:
            raise IpmbError("sensor request carries exactly one sensor number")
        number = request.data[0]
        names = [n for n, i in SENSOR_NUMBERS.items() if i == number]
        if not names:
            raise IpmbError(f"no sensor number {number}")
        value = self.smc.read_sensor(names[0], self.clock.now)
        # Fixed-point milli-units in 4 bytes, completion code 0 first.
        quanta = MILLI_UNITS.quanta(value)
        payload = bytes([0x00]) + quanta.to_bytes(4, "little")
        return IpmbMessage(
            rs_addr=request.rq_addr, net_fn=NETFN_SENSOR_RESPONSE,
            rq_addr=self.ADDRESS, rq_seq=request.rq_seq,
            cmd=request.cmd, data=payload,
        )


class BaseboardManagementController:
    """The platform BMC: the user-facing end of the out-of-band path."""

    ADDRESS = 0x20

    def __init__(self, responder: SmcIpmbResponder, clock: VirtualClock):
        self.responder = responder
        self.clock = clock
        self._seq = 0

    def read_sensor(self, name: str) -> float:
        """One out-of-band sensor read, via a full IPMB exchange.

        Advances the clock by the bus latency but charges **no process**
        — the point of out-of-band collection.
        """
        number = SENSOR_NUMBERS.get(name)
        if number is None:
            raise IpmbError(f"unknown sensor {name!r}")
        self._seq = (self._seq + 1) & 0x3F
        request = IpmbMessage(
            rs_addr=SmcIpmbResponder.ADDRESS, net_fn=NETFN_SENSOR_REQUEST,
            rq_addr=self.ADDRESS, rq_seq=self._seq,
            cmd=CMD_GET_SENSOR_READING, data=bytes([number]),
        )
        self.clock.advance(IPMB_EXCHANGE_LATENCY_S)
        # Wire round trip: serialize, verify, handle, verify.
        try:
            response = IpmbMessage.from_bytes(
                self.responder.handle(IpmbMessage.from_bytes(request.to_bytes())).to_bytes()
            )
        except ChecksumError:
            _OBS.record_error("checksum")
            raise
        _OBS.record_query(IPMB_EXCHANGE_LATENCY_S)
        if response.data[0] != 0x00:
            _OBS.record_error("completion_code")
            raise IpmbError(f"completion code 0x{response.data[0]:02x}")
        return int.from_bytes(response.data[1:5], "little") / 1000.0

    def read_power_w(self) -> float:
        return self.read_sensor("power_w")
