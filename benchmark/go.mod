module oakmap/benchmark

go 1.22

require oakmap v0.0.0

replace oakmap => ../
