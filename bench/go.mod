// The benchmark is a module of its own so the root module's build and tests
// never depend on it; the hirep/ path prefix is what lets it import
// hirep/internal/... through the replace below.
module hirep/bench

go 1.22

require hirep v0.0.0

replace hirep => ../
