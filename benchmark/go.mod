// The benchmark is a module of its own so that the root module's
// `go build ./...` and `go test ./...` neither build nor run it; its import
// path stays under senkf/, which is what lets it import senkf/internal/*.
module senkf/benchmark

go 1.22

require senkf v0.0.0

replace senkf => ../
