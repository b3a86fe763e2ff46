"""Fixture databases, the golden query corpus, and seed records.

Three small domains (olympics, library, shop) populated so that every
corpus query and seed returns at least one row. The olympics schema also
backs the evolution-trajectory tests.
"""

import json
import sqlite3
from pathlib import Path

OLYMPICS_DDL = """
CREATE TABLE person (id INTEGER PRIMARY KEY, full_name TEXT, weight INTEGER);
CREATE TABLE games (id INTEGER PRIMARY KEY, season TEXT, games_year INTEGER);
CREATE TABLE sport (id INTEGER PRIMARY KEY, sport_name TEXT);
CREATE TABLE event (
  id INTEGER PRIMARY KEY,
  sport_id INTEGER REFERENCES sport(id),
  event_name TEXT
);
CREATE TABLE games_competitor (
  id INTEGER PRIMARY KEY,
  person_id INTEGER REFERENCES person(id),
  games_id INTEGER REFERENCES games(id),
  age INTEGER
);
CREATE TABLE competitor_event (
  competitor_id INTEGER REFERENCES games_competitor(id),
  event_id INTEGER REFERENCES event(id),
  medal_id INTEGER,
  PRIMARY KEY (competitor_id, event_id)
);

INSERT INTO person VALUES
  (1, 'Alice Swift', 62), (2, 'Bob Stone', 95), (3, 'Carol Reed', 70),
  (4, 'Dan Flood', 88), (5, 'Erin Vale', 57), (6, 'Felix Marsh', 101);
INSERT INTO games VALUES
  (1, 'Summer', 2004), (2, 'Winter', 2006), (3, 'Summer', 2008),
  (4, 'Winter', 2010);
INSERT INTO sport VALUES (1, 'Swimming'), (2, 'Athletics'), (3, 'Skating');
INSERT INTO event VALUES
  (1, 1, '100m freestyle'), (2, 1, '200m medley'), (3, 2, 'marathon'),
  (4, 1, '400m freestyle'), (5, 3, 'short track'), (6, 2, 'high jump');
INSERT INTO games_competitor VALUES
  (1, 1, 1, 22), (2, 2, 1, 27), (3, 1, 3, 26), (4, 3, 1, 24),
  (5, 4, 2, 30), (6, 5, 3, 21), (7, 6, 4, 33), (8, 3, 3, 28);
INSERT INTO competitor_event VALUES
  (1, 1, 1), (1, 2, 2), (3, 1, 1), (3, 2, 1), (3, 4, 3), (2, 3, 1),
  (4, 1, 2), (5, 5, 1), (6, 2, 2), (6, 4, 1), (7, 5, 3), (8, 6, 1),
  (8, 3, 2);
"""

MINI_OLYMPICS_DDL = """
CREATE TABLE person (id INTEGER PRIMARY KEY, full_name TEXT, weight INTEGER);
CREATE TABLE games_competitor (
  id INTEGER PRIMARY KEY,
  person_id INTEGER REFERENCES person(id),
  games_id INTEGER,
  age INTEGER
);
INSERT INTO person VALUES (1, 'Alice Swift', 62), (2, 'Bob Stone', 95);
INSERT INTO games_competitor VALUES (1, 1, 1, 22), (2, 2, 1, 27);
"""

LIBRARY_DDL = """
CREATE TABLE author (id INTEGER PRIMARY KEY, name TEXT, birth_year INTEGER);
CREATE TABLE book (
  id INTEGER PRIMARY KEY,
  title TEXT,
  author_id INTEGER REFERENCES author(id),
  published_year INTEGER,
  price REAL,
  genre TEXT
);
CREATE TABLE member (id INTEGER PRIMARY KEY, full_name TEXT, joined_year INTEGER);
CREATE TABLE loan (
  id INTEGER PRIMARY KEY,
  book_id INTEGER REFERENCES book(id),
  member_id INTEGER REFERENCES member(id),
  loan_date TEXT
);

INSERT INTO author VALUES
  (1, 'Iris Bell', 1944), (2, 'Juan Ortiz', 1958), (3, 'Kay Lim', 1983),
  (4, 'Leo Adler', 1991);
INSERT INTO book VALUES
  (1, 'the long river', 1, 1979, 12.5, 'novel'),
  (2, 'night harbor', 2, 1994, 8.0, 'novel'),
  (3, 'counting stars', 3, 2011, 22.0, 'science'),
  (4, 'the glass door', 1, 1985, 5.5, 'novel'),
  (5, 'roots of logic', 4, 2018, 31.0, 'science'),
  (6, 'city of rain', 2, 2003, 14.0, 'mystery');
INSERT INTO member VALUES
  (1, 'Mo Keane', 2017), (2, 'Nina Park', 2019), (3, 'Omar Diaz', 2021);
INSERT INTO loan VALUES
  (1, 1, 1, '2021-03-04'), (2, 2, 2, '2021-06-15'), (3, 3, 1, '2022-01-20'),
  (4, 1, 3, '2022-02-11'), (5, 6, 2, '2022-05-09');
"""

SHOP_DDL = """
CREATE TABLE customer (id INTEGER PRIMARY KEY, name TEXT, city TEXT);
CREATE TABLE product (
  id INTEGER PRIMARY KEY,
  product_name TEXT,
  category TEXT,
  price REAL
);
CREATE TABLE orders (
  id INTEGER PRIMARY KEY,
  customer_id INTEGER REFERENCES customer(id),
  order_date TEXT
);
CREATE TABLE order_item (
  order_id INTEGER REFERENCES orders(id),
  product_id INTEGER REFERENCES product(id),
  quantity INTEGER,
  PRIMARY KEY (order_id, product_id)
);

INSERT INTO customer VALUES
  (1, 'Pia Voss', 'Lyon'), (2, 'Quentin Marsh', 'Oslo'),
  (3, 'Rosa Chen', 'Lyon'), (4, 'Sam Aoki', 'Kyoto');
INSERT INTO product VALUES
  (1, 'steel ladder', 'garden', 39.0), (2, 'clay pot', 'garden', 7.5),
  (3, 'bread knife', 'kitchen', 18.0), (4, 'copper pan', 'kitchen', 42.0),
  (5, 'desk lamp', 'office', 23.5), (6, 'note block', 'office', 3.2);
INSERT INTO orders VALUES
  (1, 1, '2023-01-10'), (2, 2, '2023-01-12'), (3, 1, '2023-02-01'),
  (4, 3, '2023-02-18'), (5, 4, '2023-03-05');
INSERT INTO order_item VALUES
  (1, 1, 1), (1, 2, 4), (2, 3, 1), (2, 6, 10), (3, 4, 1), (3, 5, 2),
  (4, 2, 2), (4, 6, 5), (5, 3, 2), (5, 1, 1);
"""

STAGE_SQL_0 = "SELECT full_name FROM person ORDER BY weight DESC LIMIT 1"

STAGE_SQL_1 = (
    "SELECT p.full_name FROM person p "
    "JOIN games_competitor gc ON p.id = gc.person_id "
    "JOIN competitor_event ce ON gc.id = ce.competitor_id "
    "GROUP BY p.id ORDER BY COUNT(ce.medal_id) DESC LIMIT 1"
)

STAGE_SQL_2 = (
    "SELECT p.full_name FROM person p "
    "JOIN games_competitor gc ON p.id = gc.person_id "
    "JOIN competitor_event ce ON gc.id = ce.competitor_id "
    "JOIN event e ON ce.event_id = e.id "
    "JOIN sport s ON e.sport_id = s.id "
    "JOIN games g ON gc.games_id = g.id "
    "WHERE s.sport_name = 'Swimming' AND g.season = 'Summer' "
    "GROUP BY p.id ORDER BY COUNT(ce.medal_id) DESC LIMIT 1"
)

STAGE_SQL_3 = (
    "SELECT p.full_name, AVG(gc.age) AS avg_age FROM person p "
    "JOIN games_competitor gc ON p.id = gc.person_id "
    "JOIN competitor_event ce ON gc.id = ce.competitor_id "
    "JOIN event e ON ce.event_id = e.id "
    "JOIN sport s ON e.sport_id = s.id "
    "JOIN games g ON gc.games_id = g.id "
    "WHERE s.sport_name = 'Swimming' AND g.season = 'Summer' "
    "GROUP BY p.id HAVING COUNT(ce.medal_id) >= 3 "
    "ORDER BY COUNT(ce.medal_id) DESC, avg_age ASC LIMIT 1"
)

# (schema_id, sql) pairs; every query parses, resolves, and returns rows.
GOLDEN_CORPUS = [
    ("olympics", STAGE_SQL_0),
    ("olympics", STAGE_SQL_1),
    ("olympics", STAGE_SQL_2),
    ("olympics", STAGE_SQL_3),
    ("olympics", "SELECT sport_name FROM sport"),
    ("olympics", "SELECT season, COUNT(*) AS games_count FROM games GROUP BY season"),
    ("olympics", "SELECT p.full_name, gc.age FROM person p JOIN games_competitor gc ON p.id = gc.person_id WHERE gc.age > 21"),
    ("olympics", "SELECT DISTINCT g.season FROM games g JOIN games_competitor gc ON g.id = gc.games_id"),
    ("olympics", "SELECT full_name FROM person WHERE weight BETWEEN 60 AND 90 ORDER BY full_name"),
    ("olympics", "SELECT e.event_name FROM event e JOIN sport s ON e.sport_id = s.id WHERE s.sport_name = 'Swimming'"),
    ("olympics", "SELECT full_name FROM person WHERE id IN (SELECT person_id FROM games_competitor WHERE age < 28)"),
    ("olympics", "SELECT p.full_name FROM person p WHERE EXISTS (SELECT 1 FROM games_competitor gc WHERE gc.person_id = p.id AND gc.age < 25)"),
    ("olympics", "WITH medals AS (SELECT competitor_id, COUNT(medal_id) AS n FROM competitor_event GROUP BY competitor_id) SELECT gc.person_id, m.n FROM medals m JOIN games_competitor gc ON gc.id = m.competitor_id"),
    ("olympics", "SELECT games_year FROM games WHERE season = 'Summer' UNION SELECT games_year FROM games WHERE season = 'Winter'"),
    ("olympics", "SELECT full_name, CASE WHEN weight > 80 THEN 'heavy' ELSE 'light' END AS class FROM person"),
    ("olympics", "SELECT gc.age, ROW_NUMBER() OVER (PARTITION BY gc.games_id ORDER BY gc.age DESC) AS rank_in_games FROM games_competitor gc"),
    ("olympics", "SELECT AVG(weight) FROM person WHERE weight IS NOT NULL"),
    ("olympics", "SELECT s.sport_name, COUNT(e.id) AS n_events FROM sport s LEFT JOIN event e ON e.sport_id = s.id GROUP BY s.sport_name ORDER BY n_events DESC, s.sport_name"),
    ("library", "SELECT title FROM book ORDER BY published_year LIMIT 1"),
    ("library", "SELECT name FROM author WHERE birth_year < 1950"),
    ("library", "SELECT b.title, a.name FROM book b JOIN author a ON b.author_id = a.id"),
    ("library", "SELECT genre, COUNT(*) AS n FROM book GROUP BY genre HAVING COUNT(*) >= 1"),
    ("library", "SELECT title FROM book WHERE price > 10.0 AND genre = 'novel'"),
    ("library", "SELECT m.full_name FROM member m JOIN loan l ON l.member_id = m.id JOIN book b ON l.book_id = b.id WHERE b.genre = 'novel'"),
    ("library", "SELECT title FROM book WHERE author_id IN (SELECT id FROM author WHERE birth_year > 1900)"),
    ("library", "SELECT a.name, COUNT(b.id) AS books FROM author a LEFT JOIN book b ON b.author_id = a.id GROUP BY a.name"),
    ("library", "SELECT title FROM book WHERE price BETWEEN 5 AND 50 ORDER BY price DESC, title"),
    ("library", "SELECT full_name FROM member WHERE joined_year >= 2019 UNION SELECT name FROM author WHERE birth_year >= 1980"),
    ("library", "SELECT b.title FROM book b WHERE NOT EXISTS (SELECT 1 FROM loan l WHERE l.book_id = b.id)"),
    ("library", "WITH recent AS (SELECT id, title FROM book WHERE published_year > 2000) SELECT COUNT(*) FROM recent"),
    ("library", "SELECT l.loan_date, b.title FROM loan l JOIN book b ON l.book_id = b.id ORDER BY l.loan_date"),
    ("library", "SELECT b.genre, AVG(b.price) AS avg_price FROM book b GROUP BY b.genre ORDER BY avg_price DESC"),
    ("library", "SELECT title FROM book WHERE title LIKE '%the%'"),
    ("library", "SELECT m.full_name, COUNT(l.id) AS loans FROM member m JOIN loan l ON l.member_id = m.id GROUP BY m.id HAVING COUNT(l.id) >= 1 ORDER BY loans DESC LIMIT 3"),
    ("shop", "SELECT product_name FROM product ORDER BY price DESC LIMIT 1"),
    ("shop", "SELECT name FROM customer WHERE city = 'Lyon'"),
    ("shop", "SELECT c.name, o.order_date FROM customer c JOIN orders o ON o.customer_id = c.id"),
    ("shop", "SELECT category, COUNT(*) AS n FROM product GROUP BY category"),
    ("shop", "SELECT p.product_name, oi.quantity FROM product p JOIN order_item oi ON oi.product_id = p.id WHERE oi.quantity > 1"),
    ("shop", "SELECT c.city, COUNT(o.id) AS orders_count FROM customer c LEFT JOIN orders o ON o.customer_id = c.id GROUP BY c.city"),
    ("shop", "SELECT product_name FROM product WHERE price < (SELECT AVG(price) FROM product)"),
    ("shop", "SELECT DISTINCT c.name FROM customer c JOIN orders o ON o.customer_id = c.id JOIN order_item oi ON oi.order_id = o.id JOIN product p ON oi.product_id = p.id WHERE p.category = 'garden'"),
    ("shop", "SELECT product_name FROM product WHERE category IN ('garden', 'kitchen') ORDER BY product_name"),
    ("shop", "SELECT o.order_date, SUM(oi.quantity) AS total_items FROM orders o JOIN order_item oi ON oi.order_id = o.id GROUP BY o.order_date HAVING SUM(oi.quantity) >= 1"),
    ("shop", "SELECT name FROM customer UNION ALL SELECT product_name FROM product"),
    ("shop", "SELECT product_name, CASE WHEN price >= 20 THEN 'premium' ELSE 'standard' END AS tier FROM product"),
    ("shop", "WITH big AS (SELECT id, product_name FROM product WHERE price > 15) SELECT product_name FROM big ORDER BY product_name"),
    ("shop", "SELECT c.name FROM customer c WHERE EXISTS (SELECT 1 FROM orders o WHERE o.customer_id = c.id)"),
    ("shop", "SELECT p.category, MAX(p.price) AS top_price FROM product p GROUP BY p.category ORDER BY top_price DESC"),
    ("shop", "SELECT quantity FROM order_item WHERE quantity NOT IN (0, 99)"),
]

SEED_QUESTIONS = {
    "olympics": [
        ("Who is the heaviest athlete?", STAGE_SQL_0),
        ("List every sport on record.", "SELECT sport_name FROM sport"),
        ("How many games were held per season?",
         "SELECT season, COUNT(*) AS games_count FROM games GROUP BY season"),
        ("Which athletes competed while older than 21?",
         "SELECT p.full_name FROM person p JOIN games_competitor gc ON p.id = gc.person_id WHERE gc.age > 21"),
        ("What seasons have hosted competitors?",
         "SELECT DISTINCT g.season FROM games g JOIN games_competitor gc ON g.id = gc.games_id"),
        ("Name the athletes weighing between 60 and 90 kilograms.",
         "SELECT full_name FROM person WHERE weight BETWEEN 60 AND 90 ORDER BY full_name"),
        ("Which events belong to swimming?",
         "SELECT e.event_name FROM event e JOIN sport s ON e.sport_id = s.id WHERE s.sport_name = 'Swimming'"),
        ("Who competed before turning 28?",
         "SELECT full_name FROM person WHERE id IN (SELECT person_id FROM games_competitor WHERE age < 28)"),
        ("What is the average athlete weight?",
         "SELECT AVG(weight) FROM person WHERE weight IS NOT NULL"),
        ("Count the events offered by each sport.",
         "SELECT s.sport_name, COUNT(e.id) AS n_events FROM sport s LEFT JOIN event e ON e.sport_id = s.id GROUP BY s.sport_name"),
        ("In which years were summer games held?",
         "SELECT games_year FROM games WHERE season = 'Summer'"),
        ("Show each athlete with a weight class label.",
         "SELECT full_name, CASE WHEN weight > 80 THEN 'heavy' ELSE 'light' END AS class FROM person"),
        ("Which competitors earned a medal in the marathon?",
         "SELECT DISTINCT p.full_name FROM person p JOIN games_competitor gc ON p.id = gc.person_id JOIN competitor_event ce ON gc.id = ce.competitor_id JOIN event e ON ce.event_id = e.id WHERE e.event_name = 'marathon'"),
        ("How old was the youngest competitor?",
         "SELECT MIN(age) FROM games_competitor"),
        ("List the skating events.",
         "SELECT e.event_name FROM event e JOIN sport s ON e.sport_id = s.id WHERE s.sport_name = 'Skating'"),
        ("Which games year drew the most competitors?",
         "SELECT g.games_year FROM games g JOIN games_competitor gc ON g.id = gc.games_id GROUP BY g.id ORDER BY COUNT(gc.id) DESC LIMIT 1"),
        ("Who are the lightest three athletes?",
         "SELECT full_name FROM person ORDER BY weight ASC LIMIT 3"),
        ("How many medals has each competitor entry collected?",
         "SELECT competitor_id, COUNT(medal_id) AS n FROM competitor_event GROUP BY competitor_id"),
    ],
    "library": [
        ("Which book was published first?", "SELECT title FROM book ORDER BY published_year LIMIT 1"),
        ("Name the authors born before 1950.", "SELECT name FROM author WHERE birth_year < 1950"),
        ("Pair each book with its author.",
         "SELECT b.title, a.name FROM book b JOIN author a ON b.author_id = a.id"),
        ("How many books exist per genre?",
         "SELECT genre, COUNT(*) AS n FROM book GROUP BY genre"),
        ("Which novels cost more than ten units?",
         "SELECT title FROM book WHERE price > 10.0 AND genre = 'novel'"),
        ("Who borrowed a novel?",
         "SELECT m.full_name FROM member m JOIN loan l ON l.member_id = m.id JOIN book b ON l.book_id = b.id WHERE b.genre = 'novel'"),
        ("List the titles written by authors born after 1900.",
         "SELECT title FROM book WHERE author_id IN (SELECT id FROM author WHERE birth_year > 1900)"),
        ("How many books has each author written?",
         "SELECT a.name, COUNT(b.id) AS books FROM author a LEFT JOIN book b ON b.author_id = a.id GROUP BY a.name"),
        ("Show the priciest books first.",
         "SELECT title FROM book WHERE price BETWEEN 5 AND 50 ORDER BY price DESC, title"),
        ("Which books have never been loaned?",
         "SELECT b.title FROM book b WHERE NOT EXISTS (SELECT 1 FROM loan l WHERE l.book_id = b.id)"),
        ("How many books appeared after 2000?",
         "WITH recent AS (SELECT id, title FROM book WHERE published_year > 2000) SELECT COUNT(*) FROM recent"),
        ("Show loans in date order with their titles.",
         "SELECT l.loan_date, b.title FROM loan l JOIN book b ON l.book_id = b.id ORDER BY l.loan_date"),
        ("What is the average price per genre?",
         "SELECT b.genre, AVG(b.price) AS avg_price FROM book b GROUP BY b.genre"),
        ("Find the titles containing the word the.",
         "SELECT title FROM book WHERE title LIKE '%the%'"),
        ("Who are the most active borrowers?",
         "SELECT m.full_name, COUNT(l.id) AS loans FROM member m JOIN loan l ON l.member_id = m.id GROUP BY m.id ORDER BY loans DESC LIMIT 3"),
        ("When did each member join?",
         "SELECT full_name, joined_year FROM member"),
        ("How expensive is the dearest science book?",
         "SELECT MAX(price) FROM book WHERE genre = 'science'"),
        ("Which mystery books are in the catalog?",
         "SELECT title FROM book WHERE genre = 'mystery'"),
    ],
    "shop": [
        ("What is the most expensive product?",
         "SELECT product_name FROM product ORDER BY price DESC LIMIT 1"),
        ("Which customers live in Lyon?", "SELECT name FROM customer WHERE city = 'Lyon'"),
        ("Match customers to their order dates.",
         "SELECT c.name, o.order_date FROM customer c JOIN orders o ON o.customer_id = c.id"),
        ("How many products fall in each category?",
         "SELECT category, COUNT(*) AS n FROM product GROUP BY category"),
        ("Which products were bought more than once in an order?",
         "SELECT p.product_name, oi.quantity FROM product p JOIN order_item oi ON oi.product_id = p.id WHERE oi.quantity > 1"),
        ("Count orders per customer city.",
         "SELECT c.city, COUNT(o.id) AS orders_count FROM customer c LEFT JOIN orders o ON o.customer_id = c.id GROUP BY c.city"),
        ("Which products are cheaper than average?",
         "SELECT product_name FROM product WHERE price < (SELECT AVG(price) FROM product)"),
        ("Who bought something from the garden range?",
         "SELECT DISTINCT c.name FROM customer c JOIN orders o ON o.customer_id = c.id JOIN order_item oi ON oi.order_id = o.id JOIN product p ON oi.product_id = p.id WHERE p.category = 'garden'"),
        ("List garden and kitchen products alphabetically.",
         "SELECT product_name FROM product WHERE category IN ('garden', 'kitchen') ORDER BY product_name"),
        ("How many items were sold per order date?",
         "SELECT o.order_date, SUM(oi.quantity) AS total_items FROM orders o JOIN order_item oi ON oi.order_id = o.id GROUP BY o.order_date"),
        ("Label each product premium or standard.",
         "SELECT product_name, CASE WHEN price >= 20 THEN 'premium' ELSE 'standard' END AS tier FROM product"),
        ("Which pricey products exceed fifteen units?",
         "WITH big AS (SELECT id, product_name FROM product WHERE price > 15) SELECT product_name FROM big ORDER BY product_name"),
        ("Which customers have placed an order?",
         "SELECT c.name FROM customer c WHERE EXISTS (SELECT 1 FROM orders o WHERE o.customer_id = c.id)"),
        ("What is the top price per category?",
         "SELECT p.category, MAX(p.price) AS top_price FROM product p GROUP BY p.category"),
        ("Show all order quantities above zero.",
         "SELECT quantity FROM order_item WHERE quantity NOT IN (0, 99)"),
        ("What does the office range cost on average?",
         "SELECT AVG(price) FROM product WHERE category = 'office'"),
        ("Which order contained the most distinct products?",
         "SELECT order_id FROM order_item GROUP BY order_id ORDER BY COUNT(product_id) DESC LIMIT 1"),
        ("When was the first order placed?",
         "SELECT MIN(order_date) FROM orders"),
    ],
}


def build_database(path: Path, ddl: str) -> Path:
    conn = sqlite3.connect(path)
    try:
        conn.executescript(ddl)
        conn.commit()
    finally:
        conn.close()
    return path


def build_all(root: Path) -> dict:
    root.mkdir(parents=True, exist_ok=True)
    return {
        "olympics": build_database(root / "olympics.db", OLYMPICS_DDL),
        "library": build_database(root / "library.db", LIBRARY_DDL),
        "shop": build_database(root / "shop.db", SHOP_DDL),
    }


def write_seed_file(path: Path) -> Path:
    records = []
    for schema_id, pairs in SEED_QUESTIONS.items():
        for question, sql in pairs:
            records.append({
                "question": question,
                "evidence": "",
                "SQL": sql,
                "db_id": schema_id,
            })
    path.write_text(json.dumps(records, indent=2))
    return path


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(
        description="Write the fixture databases to WORK/dbs, the seeds to "
                    "WORK/seeds.json and a run config to WORK/run.json.")
    parser.add_argument("work", type=Path)
    parser.add_argument("--out", required=True, help="output directory, under WORK")
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--expansions-per-seed", type=int)
    args = parser.parse_args()
    build_all(args.work / "dbs")
    config = {"seeds": str(write_seed_file(args.work / "seeds.json")),
              "db_dir": str(args.work / "dbs"), "out_dir": str(args.work / args.out),
              "rounds": args.rounds, "global_seed": 42}
    if args.expansions_per_seed is not None:
        config["expansions_per_seed"] = args.expansions_per_seed
    (args.work / "run.json").write_text(json.dumps(config))
