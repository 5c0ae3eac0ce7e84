package simulate

// RunReference exposes the test-only reference engine, rows and all,
// to external test packages (package simulate_test), which can import the real policy
// implementations from internal/core without creating an import cycle.
var RunReference = runReference
