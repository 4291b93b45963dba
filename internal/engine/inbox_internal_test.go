package engine

import (
	"testing"
	"time"

	"repro/internal/message"
)

// TestInboxBoundsAndOrder drives the inbox on its own: each FIFO takes
// exactly its bound, a post past it waits until a pop makes room, pops come
// back in post order across every doubling and wrap of the ring buffer, and
// close releases a poster still waiting.
func TestInboxBoundsAndOrder(t *testing.T) {
	var b inbox
	b.init()
	ctrl := func(i int) ctrlMsg { return ctrlMsg{from: message.NodeID{Port: uint32(i)}} }
	posts, next := 0, 0
	push := func() {
		t.Helper()
		if !post(&b, &b.ctrl, maxQueuedControl, ctrl(posts)) {
			t.Fatalf("control post %d refused by an open inbox", posts)
		}
		posts++
	}
	pop := func() {
		t.Helper()
		cm, ok := b.nextControl()
		if !ok || cm.from.Port != uint32(next) {
			t.Fatalf("pop %d = %d (ok %v), want %d", next, cm.from.Port, ok, next)
		}
		next++
	}
	// One pop for every two posts: the FIFO doubles with its head moved on,
	// and its contents wrapped, at every size up to the bound.
	for posts-next < maxQueuedControl {
		push()
		if posts%2 == 0 {
			pop()
		}
	}
	posted := make(chan bool)
	go func() { posted <- post(&b, &b.ctrl, maxQueuedControl, ctrl(posts)) }()
	select {
	case <-posted:
		t.Fatalf("a control post returned with %d queued: the bound is %d", maxQueuedControl, maxQueuedControl)
	case <-time.After(50 * time.Millisecond):
	}
	pop()
	if !<-posted {
		t.Fatal("the waiting control post was refused after a pop made room")
	}
	posts++ // the post that waited
	for next < posts {
		pop()
	}
	if _, ok := b.nextControl(); ok {
		t.Fatal("pop from an empty control FIFO succeeded")
	}

	for i := 0; i < maxQueuedEvents; i++ {
		if !post(&b, &b.events, maxQueuedEvents, func(API) {}) {
			t.Fatalf("event post %d refused by an open inbox", i)
		}
	}
	go func() { posted <- post(&b, &b.events, maxQueuedEvents, func(API) {}) }()
	select {
	case <-posted:
		t.Fatalf("event post %d returned: the inbox holds more than %d", maxQueuedEvents+1, maxQueuedEvents)
	case <-time.After(50 * time.Millisecond):
	}
	b.close()
	if <-posted {
		t.Fatal("a post waiting on a closed inbox was queued")
	}
	if post(&b, &b.ctrl, maxQueuedControl, ctrl(0)) {
		t.Fatal("a post to a closed inbox was queued")
	}
}
