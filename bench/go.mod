module gathernoc/bench

go 1.22

require gathernoc v0.0.0

replace gathernoc => ../
