package population

import (
	"context"
	"net/netip"
	"runtime"
	"sort"
	"testing"
	"time"

	"spfail/internal/clock"
	"spfail/internal/netsim"
)

// Stopped hosts must release everything they started, even while the
// context they were started under lives on: a study recreates its hosts
// every round under one context.
func TestHostManagerStopReturnsGoroutinesToBaseline(t *testing.T) {
	spec := DefaultSpec()
	spec.Scale = 0.002
	spec.Seed = 7
	w := MustGenerate(spec)
	var addrs []netip.Addr
	for a, h := range w.Hosts {
		if h.Listens {
			addrs = append(addrs, a)
		}
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i].Less(addrs[j]) })
	if len(addrs) > 100 {
		addrs = addrs[:100]
	}
	if len(addrs) == 0 {
		t.Fatal("world has no listening hosts")
	}
	m := &HostManager{
		World:      w,
		Fabric:     netsim.NewFabric(),
		Clock:      clock.Real{},
		DNSServer:  "192.0.2.53:53",
		DNSTimeout: time.Second,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base := runtime.NumGoroutine()
	for cycle := 0; cycle < 3; cycle++ {
		if err := m.Ensure(ctx, addrs); err != nil {
			t.Fatal(err)
		}
		if got := m.RunningCount(); got != len(addrs) {
			t.Fatalf("cycle %d: running = %d, want %d", cycle, got, len(addrs))
		}
		m.Stop(addrs)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d after Stop, want <= %d (baseline)", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
