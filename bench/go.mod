// The benchmark is its own module so that tier-1 (`go build ./... &&
// go test ./...` at the repository root) neither builds nor runs it; the
// replace directive lets it import the product's internal packages
// (its module path sits under "repro/").
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../
