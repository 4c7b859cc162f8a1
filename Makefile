# The lint target is the exact composition CI's lint job runs — if
# `make lint` is clean, the lint job is green. staticcheck is the one
# external tool; CI pins it to 2024.1.1 and `make lint` degrades to a
# warning when it is not installed (the in-repo checks still run).

GO ?= go
STATICCHECK_VERSION := 2024.1.1

.PHONY: lint build test cover benchmod

lint:
	$(GO) vet ./...
	$(GO) run ./tools/hosvet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI pins honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# cover is CI's race + per-package coverage-gate step; the gated
# package list lives only here.
cover:
	$(GO) test -race -coverprofile=coverage.out ./...
	$(GO) run ./tools/covgate -profile coverage.out -min 85 \
		repro/internal/core repro/internal/server repro/internal/shard \
		repro/internal/jobs repro/internal/snapshot repro/internal/overload \
		repro/internal/wal repro/internal/xtree repro/internal/knn \
		repro/internal/binfmt \
		repro/internal/analysis repro/internal/analysis/load \
		repro/internal/analysis/antest repro/internal/analysis/viewpin \
		repro/internal/analysis/durability repro/internal/analysis/statslock \
		repro/internal/analysis/hotpath repro/internal/analysis/determinism \
		repro/tools/hosvet repro/tools/covgate repro/tools/benchjson

# benchmod runs vet, hosvet and the tests over the bench/ harness, a
# separate Go module that ./... does not reach; CI's test job runs
# this target.
benchmod:
	cd bench && $(GO) vet . && $(GO) run repro/tools/hosvet . && $(GO) test .
