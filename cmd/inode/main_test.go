package main

import (
	"strings"
	"testing"

	ioverlay "repro"
)

func TestDataLane(t *testing.T) {
	var cfg ioverlay.Config
	if err := dataLane(&cfg, "udp", 1200); err != nil || !cfg.DatagramData || cfg.DatagramMTU != 1200 {
		t.Errorf("udp with -mtu 1200: err %v, DatagramData %v, DatagramMTU %d", err, cfg.DatagramData, cfg.DatagramMTU)
	}
	cfg = ioverlay.Config{}
	if err := dataLane(&cfg, "tcp", 0); err != nil || cfg.DatagramData {
		t.Errorf("tcp: err %v, DatagramData %v", err, cfg.DatagramData)
	}
	err := dataLane(&cfg, "tcp", 1200)
	if err == nil || !strings.Contains(err.Error(), "-mtu") || !strings.Contains(err.Error(), "-transport") {
		t.Errorf("tcp with -mtu 1200: err %v, want one naming -mtu and -transport", err)
	}
	if err := dataLane(&cfg, "sctp", 0); err == nil {
		t.Error("unknown transport accepted")
	}
}
