// The benchmark is its own module so that the root module's
// `go build ./...` and `go test ./...` never see it. The module path keeps
// the `pmemgraph/` prefix, which is what lets it import the parent's
// internal packages through the replace below.
module pmemgraph/benchmark

go 1.24

require pmemgraph v0.0.0

replace pmemgraph => ../
