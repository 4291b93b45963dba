package message

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"
)

func TestParseIDValid(t *testing.T) {
	tests := []struct {
		in   string
		ip   uint32
		port uint32
	}{
		{"0.0.0.0:0", 0, 0},
		{"10.0.0.1:7000", 10<<24 | 1, 7000},
		{"255.255.255.255:65535", 0xFFFFFFFF, 65535},
		{"128.100.241.68:3000", 128<<24 | 100<<16 | 241<<8 | 68, 3000},
	}
	for _, tt := range tests {
		id, err := ParseID(tt.in)
		if err != nil {
			t.Errorf("ParseID(%q): %v", tt.in, err)
			continue
		}
		if id.IP != tt.ip || id.Port != tt.port {
			t.Errorf("ParseID(%q) = %v, want {%d %d}", tt.in, id, tt.ip, tt.port)
		}
	}
}

func TestParseIDInvalid(t *testing.T) {
	for _, in := range []string{
		"", "10.0.0.1", "10.0.0:80", "10.0.0.256:80", "a.b.c.d:80",
		"10.0.0.1:", "10.0.0.1:notaport", "10.0.0.1:-1", "1.2.3.4.5:80",
	} {
		if _, err := ParseID(in); err == nil {
			t.Errorf("ParseID(%q) succeeded, want error", in)
		}
	}
}

func TestAddrRoundTrip(t *testing.T) {
	f := func(ip, port uint32) bool {
		id := NodeID{IP: ip, Port: port}
		parsed, err := ParseID(id.Addr())
		return err == nil && parsed == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAddrMatchesSprintf: Addr renders exactly what the dotted-quad
// Sprintf format would, at the extremes of each field, and parses back.
func TestAddrMatchesSprintf(t *testing.T) {
	for _, id := range []NodeID{
		{},
		{IP: 0xffffffff, Port: 65535},
		{IP: 0x0a000001, Port: 4294967295},
		{IP: 0xc0a80105, Port: 7000},
	} {
		want := fmt.Sprintf("%d.%d.%d.%d:%d",
			byte(id.IP>>24), byte(id.IP>>16), byte(id.IP>>8), byte(id.IP), id.Port)
		if got := id.Addr(); got != want {
			t.Errorf("Addr() = %q, want %q", got, want)
		}
		if parsed, err := ParseID(id.Addr()); err != nil || parsed != id {
			t.Errorf("ParseID(%q) = %v, %v; want %v", id.Addr(), parsed, err, id)
		}
	}
}

func TestMakeIDPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MakeID with bad IP did not panic")
		}
	}()
	MakeID("not-an-ip", 1)
}

func TestIsZero(t *testing.T) {
	if !ZeroID.IsZero() {
		t.Error("ZeroID.IsZero() = false")
	}
	if MakeID("1.0.0.0", 0).IsZero() {
		t.Error("nonzero id reported zero")
	}
}

func TestLessAndCompareOrdering(t *testing.T) {
	ids := []NodeID{
		MakeID("10.0.0.2", 1),
		MakeID("10.0.0.1", 9),
		MakeID("10.0.0.1", 2),
		MakeID("9.9.9.9", 100),
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	want := []string{"9.9.9.9:100", "10.0.0.1:2", "10.0.0.1:9", "10.0.0.2:1"}
	for i, w := range want {
		if ids[i].String() != w {
			t.Errorf("sorted[%d] = %s, want %s", i, ids[i], w)
		}
	}
	if got := ids[0].Compare(ids[1]); got != -1 {
		t.Errorf("Compare(less) = %d, want -1", got)
	}
	if got := ids[1].Compare(ids[0]); got != 1 {
		t.Errorf("Compare(greater) = %d, want 1", got)
	}
	if got := ids[2].Compare(ids[2]); got != 0 {
		t.Errorf("Compare(equal) = %d, want 0", got)
	}
}
