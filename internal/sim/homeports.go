package sim

// HomePorts caches the ports leading back to an agent's home vertex
// from its neighbors. Strategies that repeatedly step out to a
// neighbor of home and back (the paper's walker and marker, the sweep
// baseline) index the cache by the neighbor's position in their own
// list of home's neighborhood; a hit turns the return move's
// View.PortOfID — a binary search over a Θ(∆) neighbor list — into
// one array read. A cached port is exactly what PortOfID returned the
// first time, so trajectories cannot change.
//
// Ports are pure graph structure, so the cache survives trial re-arms
// for as long as the (graph stamp, home) key matches: park it in
// reusable scratch (an AgentScratch value or a Reusable stepper) and
// call Arm at the start of every run. Stamp 0 — an unknown graph —
// never matches, so hand-built contexts start cold every run.
type HomePorts struct {
	port  []int32 // by position; -1 until first computed
	stamp uint64
	home  int64
}

// Arm keys the cache to (stamp, home) over n positions. It keeps the
// cached ports when the key and size match a previous Arm with a
// non-zero stamp, and otherwise clears them and reports true, so a
// caller can drop other state it keys the same way.
func (c *HomePorts) Arm(stamp uint64, home int64, n int) (reset bool) {
	if stamp != 0 && c.stamp == stamp && c.home == home && len(c.port) == n {
		return false
	}
	if cap(c.port) < n {
		c.port = make([]int32, n)
	}
	c.port = c.port[:n]
	for i := range c.port {
		c.port[i] = -1
	}
	c.stamp, c.home = stamp, home
	return true
}

// Port returns the port from v's vertex — the neighbor of home at
// position j — back to home, computing it on the first request for j.
// ok is false when home is not visible from v (a KT0 view, or v not
// adjacent to home).
func (c *HomePorts) Port(v *View, j int) (port int, ok bool) {
	if p := c.port[j]; p >= 0 {
		return int(p), true
	}
	p, ok := v.PortOfID(c.home)
	if !ok {
		return 0, false
	}
	c.port[j] = int32(p)
	return p, true
}
