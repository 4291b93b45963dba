package message

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// NodeID uniquely identifies an iOverlay node by its IPv4 address and port
// number, exactly as the paper defines node identity. The IP is stored in
// host-independent big-endian integer form so it encodes directly into the
// 4-byte header field.
type NodeID struct {
	IP   uint32
	Port uint32
}

// ZeroID is the absent node identity.
var ZeroID NodeID

// ErrBadNodeID reports an unparseable node address.
var ErrBadNodeID = errors.New("message: bad node id")

// MakeID builds a NodeID from dotted-quad text and a port, panicking on a
// malformed literal; it is intended for constants in tests and examples.
func MakeID(ip string, port uint32) NodeID {
	id, err := ParseID(fmt.Sprintf("%s:%d", ip, port))
	if err != nil {
		panic(err)
	}
	return id
}

// ParseID parses "a.b.c.d:port" into a NodeID.
func ParseID(s string) (NodeID, error) {
	host, portStr, ok := strings.Cut(s, ":")
	if !ok {
		return ZeroID, fmt.Errorf("%w: %q missing port", ErrBadNodeID, s)
	}
	port, err := strconv.ParseUint(portStr, 10, 32)
	if err != nil {
		return ZeroID, fmt.Errorf("%w: %q: %v", ErrBadNodeID, s, err)
	}
	ip, err := parseIPv4(host)
	if err != nil {
		return ZeroID, fmt.Errorf("%w: %q: %v", ErrBadNodeID, s, err)
	}
	return NodeID{IP: ip, Port: uint32(port)}, nil
}

func parseIPv4(s string) (uint32, error) {
	var ip uint32
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("not dotted quad: %q", s)
	}
	for _, p := range parts {
		octet, err := strconv.ParseUint(p, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("bad octet %q", p)
		}
		ip = ip<<8 | uint32(octet)
	}
	return ip, nil
}

// IsZero reports whether the identity is unset.
func (id NodeID) IsZero() bool { return id == ZeroID }

// Addr renders the dial/listen address "a.b.c.d:port".
func (id NodeID) Addr() string {
	var a [len("255.255.255.255:4294967295")]byte
	b := a[:0]
	for shift := 24; shift >= 0; shift -= 8 {
		b = strconv.AppendUint(b, uint64(byte(id.IP>>shift)), 10)
		b = append(b, '.')
	}
	b[len(b)-1] = ':'
	return string(strconv.AppendUint(b, uint64(id.Port), 10))
}

// String implements fmt.Stringer; identical to Addr.
func (id NodeID) String() string { return id.Addr() }

// Less orders identities for deterministic iteration in tests and reports.
func (id NodeID) Less(other NodeID) bool {
	if id.IP != other.IP {
		return id.IP < other.IP
	}
	return id.Port < other.Port
}

// Compare returns -1, 0, or +1 ordering identities lexicographically by
// (IP, Port); it is the comparator form of Less for use with slices.Sort*.
func (id NodeID) Compare(other NodeID) int {
	switch {
	case id.Less(other):
		return -1
	case other.Less(id):
		return 1
	default:
		return 0
	}
}
