// The benchmark is a module of its own, nested in the repository: the
// module path keeps the "janus/" prefix, so the repository's internal
// packages stay importable, and the replace line points at the checkout
// the benchmark sits in.
module janus/benchmark

go 1.22

require janus v0.0.0

replace janus => ../
