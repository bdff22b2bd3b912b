GO ?= go

.PHONY: all build test race lint lint-contracts fmt vet baseline remedy-scenarios cluster-chaos train-loop bench bench-compare experiments

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -shuffle=on ./...

# Static analysis: the determinism/durability contract checkers.
# Exits nonzero on any finding not fixed, //ssdlint:allow-ed, or
# parked in .ssdlint-baseline.
lint:
	$(GO) run ./cmd/ssdlint -baseline .ssdlint-baseline -strict-baseline ./...

# The dataflow contract wall: runs the four CFG-based analyzers over
# their fixture packages (each must fail with exactly its want-annotated
# findings), the CFG/summary unit tests, and the full-module clean
# check, then writes LINT_REPORT.json with per-analyzer counts.
lint-contracts:
	$(GO) test -count=1 -run 'TestCFG|TestSummary|TestAnalyzerFixtures|TestFixturesFailViaCLI|TestContractAnalyzers|TestMainModuleIsClean|TestStrictBaseline|TestReportCounts|TestHotAllocCatches|TestPoolEscapeCatches' ./internal/lint/
	$(GO) run ./cmd/ssdlint -baseline .ssdlint-baseline -strict-baseline -report LINT_REPORT.json ./...

# Regenerate the baseline. Only for adopting the tool on a tree with
# known findings; the committed baseline is empty and should stay so.
baseline:
	$(GO) run ./cmd/ssdlint -baseline .ssdlint-baseline -write-baseline ./...

# Replay every committed remediation scenario at two GOMAXPROCS
# settings and diff the event logs against each other and the committed
# goldens. Regenerate goldens after an intentional engine change with:
#   go test ./internal/remedy/ -run Golden -update
remedy-scenarios:
	$(GO) build -o /tmp/ssdremedy ./cmd/ssdremedy
	@set -e; for s in scenarios/*.json; do \
		name=$$(basename $$s .json); \
		GOMAXPROCS=1 /tmp/ssdremedy -scenario $$s -quiet -out /tmp/$$name.p1.eventlog; \
		GOMAXPROCS=4 /tmp/ssdremedy -scenario $$s -quiet -out /tmp/$$name.p4.eventlog; \
		diff -u /tmp/$$name.p1.eventlog /tmp/$$name.p4.eventlog; \
		diff -u scenarios/golden/$$name.eventlog /tmp/$$name.p1.eventlog; \
		echo "$$name: OK"; \
	done

# The clustered failure drill: kill -9 + network partition mid-run
# behind ssdrouter, zero accepted-record loss verified through the
# router, conformance report written to BENCH_cluster.json. The
# TestFollower pattern takes in the parked-pull tests (TestFollowerPark*):
# a partition that cuts a parked pull is a failed pull retried at the tick.
cluster-chaos:
	SSDFAIL_CLUSTER_REPORT=$(CURDIR)/BENCH_cluster.json \
		$(GO) test -race -count=1 -run 'TestClusterChaos|TestReadinessGate|TestRouter|TestFollower' ./internal/cluster/

# The continuous-learning drill: ssdload drives a live ssdserved with a
# drifting fleet, the WAL-tailing trainer detects the shift, retrains,
# and promotes through POST /v1/model/reload; a crippled challenger is
# then rejected. Runs under -race at two GOMAXPROCS settings (the
# decision log and retrained models must be byte-identical), diffs the
# committed golden, and writes BENCH_learn.json.
train-loop:
	GOMAXPROCS=1 $(GO) test -race -count=1 ./internal/learn/
	SSDFAIL_LEARN_REPORT=$(CURDIR)/BENCH_learn.json \
		GOMAXPROCS=4 $(GO) test -race -count=1 ./internal/learn/

# The repository's benchmark (bench/README.md): every workload, the
# end-to-end pass and then the traced pass, about 3 min on 2 vCPUs.
# Writes BENCH_result.json (git-ignored); keep a copy from the parent
# commit to compare against.
bench:
	$(GO) run ./bench/cmd/ssdbench -seed 1 -out BENCH_result.json

# Row-by-row verdicts under BENCHMARK.json's bounds:
#   make bench-compare OLD=before.json NEW=BENCH_result.json
bench-compare:
	@test -n "$(OLD)" -a -n "$(NEW)" || { echo "usage: make bench-compare OLD=old.json NEW=new.json"; exit 2; }
	$(GO) run ./bench/cmd/ssdbench -compare $(OLD) $(NEW)

# Regenerate EXPERIMENTS.md at the default flags (about 1.5 min on 2
# vCPUs). The output holds no wall-clock number, so on an unchanged
# tree this rewrites the committed file byte for byte; CI checks that.
experiments:
	$(GO) run ./cmd/ssdreport -out EXPERIMENTS.md

fmt:
	gofmt -l -w .

vet:
	$(GO) vet ./...
