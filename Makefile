# Developer entry points. `make test` is the tier-1 gate. The one
# performance ledger is its own module under bench/ (BENCHMARK.json names
# it): `bash bench/run.sh --workload <w>` runs one workload, `make
# ledger-smoke` its functional checks. The paper's figure timings are
# `go test -bench 'Fig|Table|ModelZoo' -run '^$' .`.

GO ?= go

.PHONY: all build test vet fmt loc ledger-smoke chaos-smoke fleet-smoke membership-smoke slo-smoke

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

# Resilience smoke: ioserve under fault injection + admission control,
# saturated by ioload, asserting sheds happen, nothing crashes, and
# SIGTERM drains cleanly (see scripts/chaos_smoke.sh for knobs).
chaos-smoke:
	./scripts/chaos_smoke.sh

# Fleet smoke: iorouter over three ioserve replicas sharing one registry
# tree — kill a replica mid-run and assert clean ejection with zero
# request errors, rejoin on restart, and a graceful router drain (see
# scripts/fleet_smoke.sh for knobs).
fleet-smoke:
	./scripts/fleet_smoke.sh

# Membership smoke: the self-healing fleet lifecycle — zero-replica router
# boot, three replicas self-register, kill -9 → lease-expiry ejection,
# SIGTERM under load → coordinated drain with zero lost requests, router
# restart → snapshot recovery, drain to a clean final state (see
# scripts/membership_smoke.sh for knobs).
membership-smoke:
	./scripts/membership_smoke.sh

# Observability smoke: iorouter with SLO tracking and tracing over a traced
# ioserve replica — nominal load must meet the objectives, a stitched
# cross-process trace must be retrievable, and a latency-chaos replica must
# burn the error budget (see scripts/slo_smoke.sh for knobs).
slo-smoke:
	./scripts/slo_smoke.sh
