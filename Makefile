GO ?= go

.PHONY: all build test race lint fmt-check vet accuvet vet-fix fuzz-smoke bench serve service-e2e clean

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/...

# lint runs the gofmt check, the standard vet suite plus accuvet, the
# project's own analyzer suite (determinism, seed discipline, metric
# naming) — once through `go vet -vettool` exactly as CI does, and once
# standalone so metricname can see duplicate registrations across
# packages. staticcheck runs too when it is on PATH (CI pins its version).
lint: fmt-check vet accuvet
	@command -v staticcheck >/dev/null 2>&1 && staticcheck ./... || \
		echo "staticcheck not installed; skipping (CI runs it pinned)"

# fmt-check fails when any tracked Go file outside the analyzer testdata
# fixtures (which are deliberately unformatted inputs) needs gofmt.
fmt-check:
	@out=$$(gofmt -l $$(git ls-files '*.go' | grep -v /testdata/)); \
		if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# The standalone pass mirrors CI: it sees every package at once (so
# metricname catches cross-package duplicates) and diffs the //accu:wire
# schemas against the committed lockfile. After a deliberate wire-struct
# change, refresh the lockfile:
#   ./bin/accuvet -write-wire-lock .accuwire.lock.json ./...
accuvet:
	$(GO) build -o bin/accuvet ./cmd/accuvet
	$(GO) vet -vettool=$(CURDIR)/bin/accuvet ./...
	./bin/accuvet -wire-lock .accuwire.lock.json ./...

# vet-fix prints every accuvet finding — including ones already covered
# by an //accu:allow directive, marked "(allowed)" — together with the
# exact suppression comment to paste above a site that is intentional.
# Exit status matches plain accuvet: 1 only while live findings remain.
vet-fix:
	$(GO) build -o bin/accuvet ./cmd/accuvet
	./bin/accuvet -suggest ./...

# fuzz-smoke runs each native fuzz target briefly against its committed
# corpus plus fresh mutations — the decoder surfaces (store block
# decoder, cell-journal resume, accuserv submit) the analyzers cannot reach.
fuzz-smoke:
	$(GO) test ./internal/stats -run '^$$' -fuzz FuzzDecodeBlock -fuzztime 10s
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzCellJournalReplay -fuzztime 10s
	$(GO) test ./internal/serv -run '^$$' -fuzz FuzzSubmit -fuzztime 10s

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# serve runs the accuserv job service on its default local address with a
# throwaway data directory under bin/.
serve:
	$(GO) run ./cmd/accuserv -data bin/accuserv-data

# service-e2e is the full crash/resume contract test: SIGKILL the server
# mid-grid, restart, and require a bit-identical result digest.
service-e2e:
	bash scripts/service_e2e.sh

clean:
	rm -rf bin
