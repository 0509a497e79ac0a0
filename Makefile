# Developer entry points. `make test` is the tier-1 gate. The one
# performance ledger is its own module under bench/ (BENCHMARK.json names
# it): `bash bench/run.sh --workload <w>` runs one workload, `make
# ledger-smoke` its functional checks. The paper's figure timings are
# `go test -bench 'Fig|Table|ModelZoo' -run '^$' .`.

GO ?= go

.PHONY: all build test vet fmt loc ledger-smoke

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l .

# The north star's tracked number: non-test Go lines of the runtime
# packages, as lines and as code (neither blank nor comment-only).
# `make loc LOC_PATHS=internal/serve/cache.go` counts one file.
LOC_PATHS ?= internal/serve internal/fleet internal/obs internal/resilience internal/drift

loc:
	@lines=0; code=0; for p in $(LOC_PATHS); do \
		set -- $$(find $$p -name '*.go' ! -name '*_test.go' -exec cat {} + | \
			awk '{n++} !/^[ \t]*(\/\/|$$)/ {c++} END {print n+0, c+0}'); \
		printf '%-24s %6d lines %6d code\n' $$p $$1 $$2; \
		lines=$$((lines+$$1)); code=$$((code+$$2)); \
	done; printf '%-24s %6d lines %6d code\n' total $$lines $$code

# Ledger smoke: the bench module's own tests (it is not part of tier-1) and
# a ~2 s functional pass of the two workloads that cross the wire codec —
# every verified response bit-equal to the tree-walk reference through JSON
# and through the router, shares summing to the request's rows, the
# duplicate hit ratio in range, zero failovers. No timing is asserted.
ledger-smoke:
	cd bench && $(GO) test ./...
	bash bench/run.sh --workload http-dup --smoke
	bash bench/run.sh --workload fleet-split --smoke

# Process smokes: `make chaos-smoke`, `fleet-smoke`, `membership-smoke` and
# `slo-smoke` each run scripts/<name>_smoke.sh (its header says what the
# scenario asserts) on the shared harness scripts/lib.sh. A pattern rule is
# never applied to a .PHONY target, so these four are not listed there; the
# script prerequisite keeps a mistyped name an error.
%-smoke: scripts/%_smoke.sh
	bash $<
