GO ?= go

.PHONY: build test lint bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint is the blocking CI gate: the standard vet suite, then the
# project's own analyzers (cmd/ksrlint) twice — once under the go vet
# driver for per-package caching, once standalone so malformed
# //lint:ignore directives are audited too. See docs/LINT.md.
lint:
	$(GO) vet ./...
	$(GO) build -o bin/ksrlint ./cmd/ksrlint
	$(GO) vet -vettool=$(CURDIR)/bin/ksrlint ./...
	./bin/ksrlint ./...

bench:
	$(GO) test ./internal/sim -run '^$$' -bench 'EventThroughput|ProcessSwitch|ResourceHandoff' -benchtime=1s -benchmem
