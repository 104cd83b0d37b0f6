package topo

// The jitter-stream assignment, exposed to the external tests.
var (
	IslandsOf  = islandsOf
	SocketRNGs = socketRNGs
)
