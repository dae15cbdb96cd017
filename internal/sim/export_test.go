package sim

// SchedSourceState reports whether the network's scheduler source has been
// built (it has drawn in some run) and whether it has been seeded in the
// current run, for the external tests that drive registry schedulers.
func SchedSourceState(n *Network) (built, seeded bool) {
	return n.src.src != nil, n.src.seeded
}
