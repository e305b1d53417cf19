// Package repro is the root of a production-quality Go reproduction of
//
//	Bateni, Esfandiari, Mirrokni.
//	"Almost Optimal Streaming Algorithms for Coverage Problems." SPAA 2017.
//	arXiv:1610.08096
//
// The public API lives in the streamcover subpackage: the one-shot
// streaming algorithms (MaxCoverage, SetCover, SetCoverWithOutliers),
// instance generators and I/O, the reusable Sketch, the long-running
// concurrent Service, and the multi-tenant Hub that hosts many isolated
// Services (namespaces) in one process. Runnable godoc examples
// (ExampleMaxCoverage, ExampleNewService, ExampleService_KCover,
// ExampleHub) execute under `go test -run Example ./...` and are kept
// green by CI, so they never drift from the code.
//
// The paper's H≤n sketch and algorithms live under internal/ — core
// (Definition 2.1, merging, serialization), algorithms (Algorithms
// 3–6), greedy, bipartite — and the sharded coverage-query service
// behind cmd/covserved lives in internal/server: per-namespace shard
// engines, immutable merged snapshots that each run their greedy once
// (every query is a prefix of that run), and the HTTP JSON API (both the
// single-dataset routes and the /v1/ns multi-tenant surface; the README
// documents every endpoint).
//
// See README.md for a tour, the HTTP API reference and the CLI flag
// tables; DESIGN.md for the paper-to-code map, the system inventory and
// the multi-tenancy model (§8); and cmd/covbench for regenerating the
// experiment tables.
//
// The root package itself only hosts the repository-level benchmark
// harness (bench_test.go), with one benchmark per paper artifact.
package repro
