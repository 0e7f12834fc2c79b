# Print the fenced block that follows the line `<!-- golden NAME -->` in a
# Markdown file, without its fences:  awk -v name=NAME -f quote.awk FILE
$0 == "<!-- golden " name " -->" { state = 1; next }
state == 1 && /^```/ { state = 2; next }
state == 2 && /^```$/ { exit }
state == 2 { print }
