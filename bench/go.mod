module github.com/nuba-gpu/nuba/bench

go 1.22

require github.com/nuba-gpu/nuba v0.0.0

replace github.com/nuba-gpu/nuba => ../
