package protocol

// The memcached UDP frame format: an 8-byte header — request id,
// sequence number, datagram count, reserved — followed by the ASCII
// payload. Facebook served memcached GETs over UDP to dodge exactly
// the TCP-stack costs the paper's Figure 4 measures; the parser lives
// here (not in kvserver) so the framing rules sit next to the other
// wire formats and under the protocol fuzzers.

import (
	"encoding/binary"
	"errors"
)

const (
	// UDPHeaderLen is the memcached UDP frame header size.
	UDPHeaderLen = 8
	// UDPMaxPayload is the per-datagram payload budget: a conservative
	// 1400-byte datagram (under the 10GbE path's 1500-byte MTU minus
	// IP/UDP headers) less the frame header.
	UDPMaxPayload = 1400 - UDPHeaderLen
)

// UDP request parse errors.
var (
	ErrUDPShortFrame = errors.New("protocol: UDP datagram shorter than frame header")
	ErrUDPFragmented = errors.New("protocol: fragmented UDP request")
)

// ParseUDPRequest validates a request datagram and returns its request
// id and payload (aliasing buf). Requests must fit one datagram, so a
// non-zero sequence number or a datagram count above one is rejected,
// like memcached does.
func ParseUDPRequest(buf []byte) (reqID uint16, payload []byte, err error) {
	if len(buf) < UDPHeaderLen {
		return 0, nil, ErrUDPShortFrame
	}
	reqID = binary.BigEndian.Uint16(buf[0:])
	seq := binary.BigEndian.Uint16(buf[2:])
	count := binary.BigEndian.Uint16(buf[4:])
	if seq != 0 || count > 1 {
		return 0, nil, ErrUDPFragmented
	}
	return reqID, buf[UDPHeaderLen:], nil
}

// PutUDPHeader writes a response frame header into frame (which must
// have at least UDPHeaderLen bytes): the echoed request id, this
// fragment's sequence number, and the total datagram count.
func PutUDPHeader(frame []byte, reqID, seq, total uint16) {
	binary.BigEndian.PutUint16(frame[0:], reqID)
	binary.BigEndian.PutUint16(frame[2:], seq)
	binary.BigEndian.PutUint16(frame[4:], total)
	binary.BigEndian.PutUint16(frame[6:], 0)
}
