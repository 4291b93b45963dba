package engine

import (
	"testing"
	"time"

	"repro/internal/vnet"
)

// TestVNetDialFromInstantUnderFaults pins the assumption VNet.DialFrom
// is built on: virtual dials resolve (succeed or refuse) immediately
// even when the link is partitioned or flaky — an instant refusal under
// Partition, an instant success under Flaky — so a dial timeout has
// nothing to bound.
func TestVNetDialFromInstantUnderFaults(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	if _, err := n.Listen("10.0.0.2:7000"); err != nil {
		t.Fatal(err)
	}
	v := VNet{Net: n}

	n.Partition([]string{"10.0.0.1:7000"}, []string{"10.0.0.2:7000"})
	start := time.Now()
	if _, err := v.DialFrom("10.0.0.1:7000", "10.0.0.2:7000", time.Millisecond); err == nil {
		t.Error("dial across a partition succeeded")
	}
	if el := time.Since(start); el > 200*time.Millisecond {
		t.Errorf("partitioned dial took %v, want instant resolution", el)
	}
	n.Heal()

	// Flaky faults corrupt data in flight, not connection setup: the
	// dial itself still resolves instantly and within any budget.
	n.Flaky("10.0.0.1:7000", "10.0.0.2:7000", 1.0, 50*time.Millisecond)
	start = time.Now()
	conn, err := v.DialFrom("10.0.0.1:7000", "10.0.0.2:7000", time.Millisecond)
	if err != nil {
		t.Errorf("dial over a flaky link refused: %v", err)
	} else {
		conn.Close()
	}
	if el := time.Since(start); el > 200*time.Millisecond {
		t.Errorf("flaky dial took %v, want instant resolution", el)
	}
}
