import run

run.load_treedim()
